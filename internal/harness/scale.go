package harness

// This file is the paper-scale thrust of the reproduction: experiments
// that run a true scale-24 RMAT graph (~16.8M vertices, 268M directed
// edges — the paper's rmat24 row of Table 2 at full size) under full
// simulation, and compare a governed run's online placement loop
// against compiled-plan replay. The built-in "rmat24" dataset stays
// the ~1000x-scaled analogue (scale 16) used by the paper-artifact
// experiments; the paper-size graph registers separately as
// "rmat24-paper" so nothing else pays its generation cost.

import (
	"fmt"
	"sync"
	"time"

	"atmem"
	"atmem/apps"
	"atmem/graph"
	"atmem/internal/core"
	"atmem/internal/memsim"
)

// ScaleExperiments returns the paper-scale experiments (run by id, like
// the other extensions).
func ScaleExperiments() []Experiment {
	return []Experiment{
		{ID: "scale24", Title: "Paper-scale rmat24 (scale-24 RMAT, 268M edges): governed bfs+pr under full simulation", Run: scale24},
		{ID: "plan-replay", Title: "Compiled plan replay vs online placement loop: wall-clock, CRCs, final residency", Run: planReplay},
	}
}

var registerPaperScaleOnce sync.Once

// registerPaperScale registers the true scale-24 dataset. Generation is
// deterministic and takes a few minutes; graph.Load caches the result
// for the process lifetime.
func registerPaperScale() {
	registerPaperScaleOnce.Do(func() {
		graph.RegisterDataset("rmat24-paper", func() (*graph.Graph, error) {
			return graph.GenerateRMAT("rmat24-paper", graph.DefaultRMAT(24, 16, 24))
		})
	})
}

// paperScaleTestbed is the NVM-DRAM testbed at the paper's REAL
// capacities (Table 1: 96 GB DRAM + 768 GB Optane) instead of the
// ~1000x-scaled ones the artifact experiments use — a paper-size graph
// needs the paper-size machine.
func paperScaleTestbed() atmem.Testbed {
	p := memsim.NVMDRAMParams()
	p.Name = "nvm-dram-paper"
	p.Tiers[memsim.TierFast].CapacityBytes = 96 * memsim.GiB
	p.Tiers[memsim.TierSlow].CapacityBytes = 768 * memsim.GiB
	return atmem.CustomTestbed(p)
}

// scale24 runs the governed kernel suite (bfs + pr) on the true
// scale-24 RMAT graph under full simulation: one governed profile epoch
// (the cold iteration), then the measured iteration, per the paper's
// methodology of reporting the post-migration iteration (§6). The
// 10-minute CI budget is the acceptance bar; the wall column is what CI
// watches.
func scale24(s *Suite) ([]*Report, error) {
	registerPaperScale()
	rep := &Report{
		ID:    "scale24",
		Title: "Governed suite on paper-scale rmat24 (NVM-DRAM at real capacities)",
		Columns: []string{"app", "vertices", "edges", "setup(s)", "first-iter(s)",
			"iter(s)", "data-ratio", "resident-MiB", "wall(s)", "validated"},
	}
	expStart := time.Now()
	for _, app := range []string{"bfs", "pr"} {
		runStart := time.Now()
		rt, kerns, err := newSession(paperScaleTestbed(), "rmat24-paper", []string{app},
			atmem.WithGovernor(atmem.GovernorOptions{}))
		if err != nil {
			return nil, fmt.Errorf("harness: scale24: %w", err)
		}
		kern := kerns[0]
		setup := time.Since(runStart)
		g, err := graph.Load("rmat24-paper")
		if err != nil {
			return nil, err
		}

		var first apps.IterationResult
		if _, err := rt.RunEpoch("profile", func() { first = kern.RunIteration(rt) }); err != nil {
			return nil, fmt.Errorf("harness: scale24 %s epoch: %w", app, err)
		}
		second := kern.RunIteration(rt)
		if err := checkBooks(rt, kern); err != nil {
			return nil, fmt.Errorf("harness: scale24 %s: %w", app, err)
		}
		rep.AddRow(app,
			fmt.Sprintf("%d", g.NumVertices()),
			fmt.Sprintf("%d", g.NumEdges()),
			secs(setup.Seconds()),
			secs(first.Seconds), secs(second.Seconds),
			pct(rt.FastDataRatio()),
			fmt.Sprintf("%d", rt.ResidentBytes()>>20),
			secs(time.Since(runStart).Seconds()),
			"true")
		if s.Verbose {
			fmt.Printf("  [scale24] %s done in %.1fs\n", app, time.Since(runStart).Seconds())
		}
	}
	rep.AddNote("total wall %.1fs; CI budget is 600s for the whole suite (generation is paid once and shared via the dataset cache)",
		time.Since(expStart).Seconds())
	return []*Report{rep}, nil
}

// planSession is one governed run of the record/replay comparison, with
// host-clock accounting split between the kernel bodies and everything
// else RunEpoch does (profiling, attribution, analysis, scheduling,
// migration — the placement loop replay is meant to collapse).
type planSession struct {
	Verdict          core.LookupVerdict
	Replayed         bool
	GraphCRC         uint32
	WallSeconds      float64
	BodySeconds      float64
	PlacementSeconds float64
	ResidentBytes    uint64
	Layout           map[string][memsim.NumTiers]uint64
	Plan             *core.CompiledPlan
}

// runPlanSession executes one governed run of app on dataset ds for the
// given number of epochs against the shared plan cache: the first call
// records (miss), an identical second call replays (hit).
func runPlanSession(pc *core.PlanCache, app, ds string, epochs int) (planSession, error) {
	var out planSession
	g, err := graph.Load(ds)
	if err != nil {
		return out, err
	}
	out.GraphCRC = g.CRC()
	runStart := time.Now()
	rt, kerns, err := newSession(atmem.NVMDRAM(), ds, []string{app},
		atmem.WithGovernor(atmem.GovernorOptions{}),
		atmem.WithPlanCache(pc))
	if err != nil {
		return out, err
	}
	kern := kerns[0]
	sig := rt.BuildSignature(ds, out.GraphCRC, []string{app})
	verdict, err := rt.ArmPlan(sig)
	if err != nil {
		return out, err
	}
	out.Verdict = verdict
	out.Replayed = rt.Replaying()
	for e := 0; e < epochs; e++ {
		epochStart := time.Now()
		var body time.Duration
		er, err := rt.RunEpoch(fmt.Sprintf("e%d", e+1), func() {
			t := time.Now()
			kern.RunIteration(rt)
			body = time.Since(t)
		})
		if err != nil {
			return out, err
		}
		if er.Replayed != out.Replayed {
			return out, fmt.Errorf("harness: epoch %d replay mode flipped", e+1)
		}
		out.BodySeconds += body.Seconds()
		out.PlacementSeconds += (time.Since(epochStart) - body).Seconds()
	}
	out.Plan, err = rt.FinishPlan()
	if err != nil {
		return out, err
	}
	out.WallSeconds = time.Since(runStart).Seconds()
	out.ResidentBytes = rt.ResidentBytes()
	out.Layout = make(map[string][memsim.NumTiers]uint64)
	for _, o := range rt.Objects() {
		out.Layout[o.Name()] = rt.System().BytesOnTier(o.Base(), o.Size())
	}
	if err := checkBooks(rt, kern); err != nil {
		return out, fmt.Errorf("harness: plan session: %w", err)
	}
	return out, nil
}

// comparePlanSessions runs the online (recording) and replay runs and
// checks the equivalence contract: bit-identical graph CRCs, identical
// final residency and per-object tier layout.
func comparePlanSessions(app, ds string, epochs int) (online, replay planSession, err error) {
	pc := core.NewPlanCache()
	online, err = runPlanSession(pc, app, ds, epochs)
	if err != nil {
		return
	}
	if online.Verdict != core.LookupMiss || online.Replayed {
		err = fmt.Errorf("harness: first session did not record (verdict %v)", online.Verdict)
		return
	}
	replay, err = runPlanSession(pc, app, ds, epochs)
	if err != nil {
		return
	}
	if replay.Verdict != core.LookupHit || !replay.Replayed {
		err = fmt.Errorf("harness: second session did not replay (verdict %v)", replay.Verdict)
		return
	}
	if online.GraphCRC != replay.GraphCRC {
		err = fmt.Errorf("harness: graph CRC diverged: %#x vs %#x", online.GraphCRC, replay.GraphCRC)
		return
	}
	if online.ResidentBytes != replay.ResidentBytes {
		err = fmt.Errorf("harness: final residency diverged: %d vs %d", online.ResidentBytes, replay.ResidentBytes)
		return
	}
	for name, want := range online.Layout {
		if replay.Layout[name] != want {
			err = fmt.Errorf("harness: object %q tier layout diverged: %v vs %v", name, replay.Layout[name], want)
			return
		}
	}
	return
}

// planReplay is the online-vs-replay experiment of the tentpole: the
// same governed suite run twice, once through the online
// profile→analyze→migrate loop (recording) and once replaying the
// compiled plan, with the equivalence contract checked and the
// placement-loop collapse quantified.
func planReplay(s *Suite) ([]*Report, error) {
	const app, ds, epochs = "pr", "twitter", 4
	online, replay, err := comparePlanSessions(app, ds, epochs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "plan-replay",
		Title: fmt.Sprintf("Online vs compiled-plan replay: %s on %s, %d epochs (NVM-DRAM)", app, ds, epochs),
		Columns: []string{"mode", "verdict", "wall(s)", "kernels(s)", "placement(s)",
			"resident-B", "graph-crc"},
	}
	row := func(label string, ps planSession) {
		rep.AddRow(label, ps.Verdict.String(),
			secs(ps.WallSeconds), secs(ps.BodySeconds), secs(ps.PlacementSeconds),
			fmt.Sprintf("%d", ps.ResidentBytes),
			fmt.Sprintf("%08x", ps.GraphCRC))
	}
	row("online", online)
	row("replay", replay)
	rep.AddNote("placement-loop speedup %.1fx (replay skips profiling, attribution, analysis, and scheduling; only the recorded migrations execute); plan: %d epochs, %d steps",
		online.PlacementSeconds/replay.PlacementSeconds, online.Plan.Epochs, len(online.Plan.Steps))
	rep.AddNote("equivalence held: bit-identical graph CRCs, identical final residency and per-object tier layout")
	return []*Report{rep}, nil
}
