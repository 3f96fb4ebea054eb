package harness

import (
	"fmt"

	"atmem/graph"
	"atmem/internal/faultinject"
)

// The experiments in this file go beyond the paper's evaluation: they
// quantify design properties the paper argues qualitatively (sampling
// accuracy, the contiguity assumption) and the §9 future-work extension
// (aggregate-bandwidth placement).

// ExtensionExperiments returns the extra experiments, kept separate from
// Experiments() so `atmem-bench all` reproduces exactly the paper's
// artifact set; run them explicitly by id.
func ExtensionExperiments() []Experiment {
	return []Experiment{
		{ID: "accuracy", Title: "Sampling accuracy: ATMem's sampled selection vs a full-profiling oracle (period 1)", Run: accuracy},
		{ID: "locality", Title: "Contiguity ablation: hub-ordered vs shuffled vs degree-ordered vertex ids", Run: locality},
		{ID: "aggbw", Title: "Aggregate-bandwidth placement on independent channels (§9 extension, KNL)", Run: aggbw},
		{ID: "robustness", Title: "Fault-injected migration: graceful degradation under staging/remap failures", Run: robustness},
		{ID: "adaptive-pressure", Title: "Epoch-adaptive governor: hot-set shift under a tightening budget, with and without faults", Run: adaptivePressure},
		{ID: "overlap", Title: "Overlapped placement vs stop-the-world epochs (adaptive-pressure scenario)", Run: overlapComparison},
		{ID: "chaos-soak", Title: "Chaos soak: self-healing placement under escalating persistent faults and corruption", Run: chaosSoak},
		{ID: "serving", Title: "Multi-tenant broker: fast-tier isolation, admission control, and SLO-aware degradation under storms", Run: serving},
		{ID: "policy-shootout", Title: "Placement-policy shootout: static floor vs paper analyzer vs learned ranker vs hindsight oracle, seven kernels", Run: policyShootout},
	}
}

// AllExperiments returns paper artifacts followed by the extensions and
// the paper-scale experiments.
func AllExperiments() []Experiment {
	all := append(Experiments(), ExtensionExperiments()...)
	return append(all, ScaleExperiments()...)
}

// accuracy compares the default adaptive-period profile against an
// oracle that samples every demand miss (period 1): how close does
// lightweight sampling get, in both selection footprint and resulting
// performance? (§2.2's overhead/accuracy trade-off, quantified.)
func accuracy(s *Suite) ([]*Report, error) {
	rep := &Report{
		ID:    "accuracy",
		Title: "Sampled selection vs full-profiling oracle (NVM-DRAM)",
		Columns: []string{"app", "dataset", "sampled-ratio", "oracle-ratio",
			"sampled(s)", "oracle(s)", "sampled/oracle"},
	}
	for _, app := range evalApps {
		for _, ds := range []string{"twitter", "rmat27"} {
			sampled, err := s.Run(RunConfig{Testbed: NVM, App: app, Dataset: ds, Policy: ATMem})
			if err != nil {
				return nil, err
			}
			oracle, err := s.Run(RunConfig{Testbed: NVM, App: app, Dataset: ds,
				Policy: ATMem, SamplePeriod: 1})
			if err != nil {
				return nil, err
			}
			rep.AddRow(app, ds,
				pct(sampled.DataRatio), pct(oracle.DataRatio),
				secs(sampled.IterSeconds), secs(oracle.IterSeconds),
				ratio(sampled.IterSeconds/oracle.IterSeconds))
		}
	}
	rep.AddNote("period-1 profiling is the information upper bound; values near 1.00x mean the tree promotion recovered what sampling lost (§4.3)")
	return []*Report{rep}, nil
}

// locality probes the contiguity assumption behind chunk-granularity
// placement: ATMem's win depends on hot vertices clustering in the
// address space. Shuffled ids scatter the hubs across every chunk;
// degree ordering packs them maximally.
func locality(s *Suite) ([]*Report, error) {
	variants := []struct {
		suffix string
		make   func(g *graph.Graph) (*graph.Graph, error)
	}{
		{"", nil}, // original (crawl-order analogue)
		{"-shuffled", func(g *graph.Graph) (*graph.Graph, error) { return g.ShuffleLabels(1234) }},
		{"-degordered", func(g *graph.Graph) (*graph.Graph, error) { return g.DegreeOrder() }},
	}
	const base = "twitter"
	for _, v := range variants {
		if v.make == nil {
			continue
		}
		mk := v.make
		graph.RegisterDataset(base+v.suffix, func() (*graph.Graph, error) {
			g, err := graph.Load(base)
			if err != nil {
				return nil, err
			}
			return mk(g)
		})
	}
	rep := &Report{
		ID:    "locality",
		Title: "PR on twitter id orderings (NVM-DRAM)",
		Columns: []string{"ordering", "baseline(s)", "atmem(s)",
			"speedup", "data-ratio", "regions"},
	}
	for _, v := range variants {
		ds := base + v.suffix
		baseRun, err := s.Run(RunConfig{Testbed: NVM, App: "pr", Dataset: ds, Policy: Baseline})
		if err != nil {
			return nil, err
		}
		at, err := s.Run(RunConfig{Testbed: NVM, App: "pr", Dataset: ds, Policy: ATMem})
		if err != nil {
			return nil, err
		}
		label := "crawl-order"
		if v.suffix != "" {
			label = v.suffix[1:]
		}
		rep.AddRow(label,
			secs(baseRun.IterSeconds), secs(at.IterSeconds),
			ratio(baseRun.IterSeconds/at.IterSeconds),
			pct(at.DataRatio),
			fmt.Sprintf("%d", at.Migration.Regions))
	}
	rep.AddNote("shuffled ids scatter hub entries across every chunk: selection must either grow or lose precision; degree ordering is the best case")
	return []*Report{rep}, nil
}

// aggbw measures the §9 aggregate-bandwidth extension on the
// independent-channel KNL testbed.
func aggbw(s *Suite) ([]*Report, error) {
	rep := &Report{
		ID:    "aggbw",
		Title: "Aggregate-bandwidth placement (MCDRAM-DRAM testbed)",
		Columns: []string{"app", "dataset", "fast-only(s)", "agg-bw(s)",
			"improvement", "fast-only-ratio", "agg-bw-ratio"},
	}
	for _, app := range []string{"pr", "sssp"} {
		for _, ds := range []string{"rmat27", "friendster"} {
			fastOnly, err := s.Run(RunConfig{Testbed: KNL, App: app, Dataset: ds, Policy: ATMem})
			if err != nil {
				return nil, err
			}
			agg, err := s.Run(RunConfig{Testbed: KNL, App: app, Dataset: ds,
				Policy: ATMem, BandwidthAware: true})
			if err != nil {
				return nil, err
			}
			rep.AddRow(app, ds,
				secs(fastOnly.IterSeconds), secs(agg.IterSeconds),
				pct(fastOnly.IterSeconds/agg.IterSeconds-1),
				pct(fastOnly.DataRatio), pct(agg.DataRatio))
		}
	}
	rep.AddNote("leaving the coldest slice of the selection on DDR4 keeps both channel sets busy; gains are modest and only exist on independent-channel systems")
	return []*Report{rep}, nil
}

// robustness runs a real workload under the fault-injection schedules of
// the migration fault matrix and reports how the transactional Optimize
// path degrades: which regions migrated, retried, or were skipped, what
// that cost in iteration time, and that results still validate. The
// fault-free row is the reference; every faulted run must stay correct
// (validated) — only performance may degrade.
func robustness(s *Suite) ([]*Report, error) {
	scenarios := []struct {
		label    string
		sched    *faultinject.Schedule
		governed bool
	}{
		{"fault-free", nil, false},
		{"staging-nth1", &faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Nth: 1}}}, false},
		{"remap-nth2", &faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpRetier, Nth: 2}}}, false},
		{"remap-storm", &faultinject.Schedule{Seed: 1, Faults: []faultinject.Fault{
			{Op: faultinject.OpRetier, Prob: 0.5}}}, false},
		{"all-reserves-fail", &faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 1}}}, false},
		// Governed variants route the same run through Runtime.RunEpoch:
		// the demoted/breaker columns come alive and the breaker absorbs
		// the degraded epoch instead of only the per-region skip ladder.
		{"governed-fault-free", nil, true},
		{"governed-all-reserves-fail", &faultinject.Schedule{Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 1}}}, true},
	}
	rep := &Report{
		ID:    "robustness",
		Title: "PR on twitter under injected migration faults (NVM-DRAM)",
		Columns: []string{"scenario", "iter(s)", "migrated", "retried",
			"skipped", "skipped-bytes", "demoted", "breaker", "faults",
			"data-ratio", "validated"},
	}
	for _, sc := range scenarios {
		res, err := s.Run(RunConfig{
			Testbed: NVM, App: "pr", Dataset: "twitter", Policy: ATMem,
			FaultSchedule: sc.sched, FaultLabel: sc.label, Governed: sc.governed,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: robustness %s: %w", sc.label, err)
		}
		demoted, breaker := "-", "-"
		if sc.governed {
			demoted = fmt.Sprintf("%d", res.Migration.DemotedBytes)
			breaker = res.Migration.Breaker
		}
		rep.AddRow(sc.label,
			secs(res.IterSeconds),
			fmt.Sprintf("%d", res.Migration.RegionsMigrated),
			fmt.Sprintf("%d", res.Migration.RegionsRetried),
			fmt.Sprintf("%d", res.Migration.RegionsSkipped),
			fmt.Sprintf("%d", res.Migration.SkippedBytes),
			demoted, breaker,
			fmt.Sprintf("%d", res.FaultEvents),
			pct(res.DataRatio),
			fmt.Sprintf("%t", res.Validated))
	}
	rep.AddNote("faults degrade placement (skipped regions stay on the large memory) but never correctness: every scenario validates, no reservation leaks, and rolled-back regions keep their translations; governed rows run through RunEpoch and report the governor's demotions and breaker state")
	return []*Report{rep}, nil
}
