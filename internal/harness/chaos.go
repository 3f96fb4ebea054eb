package harness

import (
	"fmt"
	"slices"

	"atmem"
	"atmem/internal/faultinject"
	"atmem/internal/health"
	"atmem/internal/memsim"
)

// This file holds the chaos-soak script: the adaptive-pressure
// workload shift (BFS warm-up → PageRank) run under an escalating
// persistent-fault and corruption storm, with the tier-health
// subsystem (scoreboard, scrubber, quarantine ledger) switched on. It
// is the end-to-end proof of self-healing placement: the run must
// finish with a meaningful share of the fast tier quarantined, every
// injected corruption detected and demoted, no placement decision
// landing on retired pages, and results identical to a fault-free twin
// of the same epoch sequence.

// chaosQuarantineFraction is the share of the fast tier's capacity the
// storm must have quarantined by its end.
const chaosQuarantineFraction = 0.05

// chaosQuarantineTarget is chaosQuarantineFraction in bytes.
func chaosQuarantineTarget() uint64 {
	return uint64(chaosQuarantineFraction * float64(memsim.NVMDRAMParams().Tiers[memsim.TierFast].CapacityBytes))
}

// chaosScript returns the chaos-soak scenario: twitter (the largest
// graph whose two per-kernel copies still leave fast-tier headroom),
// three fault-free BFS epochs that promote a first hot set, then PR
// epochs with the storm armed after epoch 3 and disarmed after epoch 11
// (eight storm epochs, five cool-down epochs in which the breaker must
// recover and placement keep routing around the retired pages). The
// governor is adaptive-pressure's with a looser breaker threshold, so
// promotion keeps being attempted while the storm escalates, and the
// persistence threshold is short, so the storm's failures condemn
// within the window. The fault-free twin runs the same sequence with
// nothing armed.
func chaosScript(faulted bool) Script {
	sc := Script{
		Name:     "chaos-soak-baseline",
		Dataset:  "twitter",
		Governor: adaptiveScript(false).Governor,
		Health: &health.Policy{
			Window:              6,
			PersistentThreshold: 2,
			BackoffEpochs:       1,
			MaxBackoff:          4,
		},
		Steps:       []Step{{App: "bfs", Epochs: 3}, {App: "pr", Epochs: 13}},
		ArmAfter:    3,
		DisarmAfter: 11,
	}
	sc.Governor.BreakerThreshold = 4
	if faulted {
		sc.Name = "chaos-soak"
		sc.Faults = chaosFaults
	}
	return sc
}

// chaosFaults aims the escalating storm at addresses that only exist
// after setup, using the run's actual residency: by the end of the BFS
// warm phase the whole BFS working set (offsets, edges, level) is
// fast-resident and scrub-tracked, while the PR arrays are about to be
// promoted for the first time.
//
//   - Persistent retier faults over the PR hot arrays (offsets, rank,
//     next): every promotion into them fails from the first storm
//     epoch, feeding the scoreboard until their granules are condemned
//     and their address ranges retired.
//   - Escalating corruption waves over the BFS-era residency (Nth
//     counts the injector's own epoch clock, which starts at arming):
//     storm epoch 1 flips bytes in a quarter of the BFS edge array,
//     epoch 2 in all of it plus the offsets, epoch 4 anywhere still
//     fast-resident. Every hit chunk must be detected, repaired,
//     demoted, and its pages retired.
//   - One latency-degradation order over the PR edge array (factor 4)
//     at storm epoch 3, exercising the degraded-range accounting on a
//     range the remaining epochs keep reading.
func chaosFaults(rt *atmem.Runtime) ([]faultinject.Fault, error) {
	objs := make(map[string]*atmem.Object)
	// The final wave sweeps the whole registered address space: whatever
	// is still fast-resident by then is fair game.
	var lo, hi uint64
	for _, o := range rt.Objects() {
		objs[o.Name()] = o
		if hi == 0 || o.Base() < lo {
			lo = o.Base()
		}
		hi = max(hi, o.Base()+o.Size())
	}
	for _, name := range []string{"pr.offsets", "pr.rank", "pr.next", "pr.edges", "bfs.edges", "bfs.offsets"} {
		if objs[name] == nil {
			return nil, fmt.Errorf("no object %q registered", name)
		}
	}
	persistent := func(name string) faultinject.Fault {
		o := objs[name]
		return faultinject.Fault{Kind: faultinject.Persistent, Op: faultinject.OpRetier, Base: o.Base(), Size: o.Size()}
	}
	bfsEdges, bfsOff, prEdges := objs["bfs.edges"], objs["bfs.offsets"], objs["pr.edges"]
	return []faultinject.Fault{
		persistent("pr.offsets"), persistent("pr.rank"), persistent("pr.next"),
		{Kind: faultinject.Corrupt, Nth: 1, Base: bfsEdges.Base(), Size: bfsEdges.Size() / 4},
		{Kind: faultinject.Corrupt, Nth: 2, Base: bfsEdges.Base(), Size: bfsEdges.Size()},
		{Kind: faultinject.Corrupt, Nth: 2, Base: bfsOff.Base(), Size: bfsOff.Size()},
		{Kind: faultinject.Corrupt, Nth: 4, Base: lo, Size: hi - lo},
		{Kind: faultinject.Degrade, Nth: 3, Factor: 4, Base: prEdges.Base(), Size: prEdges.Size()},
	}, nil
}

// chaosBars are the chaos-soak acceptance bars, in dependency order:
// corruption landed and every corrupted chunk was detected, repaired
// and emergency-demoted; the storm condemned granules and vetoed
// promotions; at least chaosQuarantineFraction of the fast tier was
// quarantined, crossed during the storm; and the faulted run computed
// the same results as the fault-free one.
func chaosBars(sc Script, base, faulted *ScriptResult) error {
	h := faulted.Health
	if h.CorruptedChunks == 0 {
		return fmt.Errorf("no corruption order landed (schedule mis-aimed?)")
	}
	if h.Scrub.Detections != h.CorruptedChunks {
		return fmt.Errorf("%d corrupted chunks but %d scrub detections — corruption escaped the scrubber",
			h.CorruptedChunks, h.Scrub.Detections)
	}
	if h.Scrub.Repairs != h.Scrub.Detections {
		return fmt.Errorf("%d detections but %d repairs", h.Scrub.Detections, h.Scrub.Repairs)
	}
	if h.EmergencyDemotions != h.Scrub.Detections {
		return fmt.Errorf("%d detections but %d emergency demotions", h.Scrub.Detections, h.EmergencyDemotions)
	}
	if h.Board.Condemned == 0 {
		return fmt.Errorf("persistent storm never condemned a granule: %+v", h.Board)
	}
	if h.PromotionsVetoed == 0 {
		return fmt.Errorf("no promotion was ever vetoed")
	}
	target := chaosQuarantineTarget()
	if h.Quarantined < target {
		return fmt.Errorf("quarantined %d bytes, below the %d-byte bar (%.0f%% of the fast tier)",
			h.Quarantined, target, 100*chaosQuarantineFraction)
	}
	if crossed := chaosTargetEpoch(faulted); crossed == 0 || crossed > sc.DisarmAfter {
		return fmt.Errorf("quarantine bar crossed at epoch %d, after the storm (epoch %d) — not mid-run",
			crossed, sc.DisarmAfter)
	}
	return sameResults(base, faulted)
}

// chaosTargetEpoch returns the epoch that first crossed the quarantine
// bar (0 if none did).
func chaosTargetEpoch(res *ScriptResult) int {
	target := chaosQuarantineTarget()
	return 1 + slices.IndexFunc(res.Epochs, func(e ScriptEpoch) bool { return e.Health.Quarantined >= target })
}

// runChaosSoak runs the fault-free twin and the faulted script (traced
// into traceDir when non-empty) and judges them by chaosBars.
func runChaosSoak(traceDir string) (*ScriptResult, error) {
	base, err := runScript(chaosScript(false))
	if err != nil {
		return nil, err
	}
	sc := chaosScript(true)
	sc.TraceDir = traceDir
	faulted, err := runScript(sc)
	if err == nil {
		err = chaosBars(sc, base, faulted)
	}
	if err != nil {
		return faulted, fmt.Errorf("harness: %s: %w", sc.Name, err)
	}
	return faulted, nil
}

// chaosSoak is the experiment wrapper: the faulted run rendered as one
// row per epoch, with the fault-free comparison in the note.
func chaosSoak(s *Suite) ([]*Report, error) {
	res, err := runChaosSoak(s.TraceDir)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "chaos-soak",
		Title: "Chaos soak: self-healing placement under an escalating persistent-fault and corruption storm (twitter, NVM-DRAM)",
		Columns: []string{"epoch", "workload", "iter(s)", "quarantined",
			"ranges", "detected", "repaired", "vetoed", "condemned",
			"breaker", "outcome"},
	}
	for i, e := range res.Epochs {
		h := e.Health
		rep.AddRow(
			fmt.Sprintf("%d", i+1), e.App, secs(res.Scorecards[i].PhaseSeconds),
			fmt.Sprintf("%d", h.Quarantined),
			fmt.Sprintf("%d", h.QuarantinedRanges),
			fmt.Sprintf("%d", h.Scrub.Detections),
			fmt.Sprintf("%d", h.Scrub.Repairs),
			fmt.Sprintf("%d", h.PromotionsVetoed),
			fmt.Sprintf("%d", h.Board.Condemned),
			e.Migration.Breaker, outcome(e.Migration))
	}
	h := res.Health
	rep.AddNote("quarantined %d bytes (bar %d, crossed at epoch %d); %d corrupted chunks all detected, repaired, and demoted; %d promotions vetoed; breaker: %s (final %s); %d fault fires; results CRC %08x identical to the fault-free run",
		h.Quarantined, chaosQuarantineTarget(), chaosTargetEpoch(res),
		h.CorruptedChunks, h.PromotionsVetoed,
		transitionSummary(res.Transitions), res.FinalState,
		res.FaultEvents, res.CRC)
	return []*Report{rep}, nil
}
