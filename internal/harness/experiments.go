package harness

import (
	"fmt"
	"math"
	"sort"

	"atmem"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the artifact id ("fig5", "tab4", ...).
	ID string
	// Title describes what the artifact shows.
	Title string
	// Run executes the experiment against a (memoizing) suite.
	Run func(s *Suite) ([]*Report, error)
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig1a", Title: "Slowdown of all-NVM vs all-DRAM placement (NVM-DRAM testbed)", Run: fig1a},
		{ID: "fig1b", Title: "Slowdown of all-DRAM vs MCDRAM-preferred placement (MCDRAM-DRAM testbed)", Run: fig1b},
		{ID: "fig5", Title: "Execution time: NVM baseline / ATMem / all-DRAM ideal (NVM-DRAM testbed)", Run: fig5},
		{ID: "tab3", Title: "ATMem slowdown vs all-DRAM ideal, min/max per app (NVM-DRAM testbed)", Run: tab3},
		{ID: "fig6", Title: "Execution time: DRAM baseline / ATMem / MCDRAM-p (MCDRAM-DRAM testbed)", Run: fig6},
		{ID: "fig7", Title: "Data ratio placed on DRAM by ATMem (NVM-DRAM testbed)", Run: fig7},
		{ID: "fig8", Title: "Data ratio placed on MCDRAM by ATMem (MCDRAM-DRAM testbed)", Run: fig8},
		{ID: "fig9", Title: "BFS time vs data ratio, ε sweep (NVM-DRAM testbed)", Run: fig9},
		{ID: "fig10", Title: "BFS time vs data ratio, ε sweep (MCDRAM-DRAM testbed)", Run: fig10},
		{ID: "tab4", Title: "TLB-miss and migration-time reduction vs mbind, PR (both testbeds)", Run: tab4},
		{ID: "overhead", Title: "Profiling and migration overhead analysis (§7.4)", Run: overhead},
	}
}

// ExperimentByID finds one experiment (paper artifacts and extensions).
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// evalApps are the paper's five workloads, in its order.
var evalApps = []string{"bfs", "sssp", "pr", "bc", "cc"}

// fig1Apps are the workloads Figure 1 plots.
var fig1Apps = []string{"pr", "sssp", "bc"}

// evalDatasets are the five inputs, in the paper's order.
var evalDatasets = []string{"pokec", "rmat24", "twitter", "rmat27", "friendster"}

func secs(v float64) string  { return fmt.Sprintf("%.6f", v) }
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }
func pct(v float64) string   { return fmt.Sprintf("%.1f%%", 100*v) }

// idealPolicy is the per-testbed "ideal" reference of §7.1: all-DRAM on
// the NVM-DRAM testbed, MCDRAM-preferred on the capacity-limited KNL.
func idealPolicy(tb TestbedID) Policy {
	if tb == NVM {
		return AllFast
	}
	return PreferFast
}

// fig1a reports the normalized execution time of all-slow placement over
// all-fast placement on the NVM-DRAM testbed (paper Figure 1a).
func fig1a(s *Suite) ([]*Report, error) {
	return figure1(s, "fig1a", NVM, "all-NVM / all-DRAM")
}

// fig1b is the MCDRAM-DRAM counterpart; the reference is MCDRAM-preferred
// because MCDRAM cannot hold every dataset (§6).
func fig1b(s *Suite) ([]*Report, error) {
	return figure1(s, "fig1b", KNL, "all-DRAM / MCDRAM-p")
}

func figure1(s *Suite, id string, tb TestbedID, metric string) ([]*Report, error) {
	rep := &Report{
		ID:      id,
		Title:   "Normalized time, " + metric,
		Columns: append([]string{"dataset"}, fig1Apps...),
	}
	for _, ds := range evalDatasets {
		row := []string{ds}
		for _, app := range fig1Apps {
			slow, err := s.Run(RunConfig{Testbed: tb, App: app, Dataset: ds, Policy: Baseline})
			if err != nil {
				return nil, err
			}
			fast, err := s.Run(RunConfig{Testbed: tb, App: app, Dataset: ds, Policy: idealPolicy(tb)})
			if err != nil {
				return nil, err
			}
			row = append(row, ratio(slow.IterSeconds/fast.IterSeconds))
		}
		rep.AddRow(row...)
	}
	rep.AddNote("paper: up to ~10x slowdown on NVM-DRAM (Fig. 1a), up to ~3x on MCDRAM-DRAM (Fig. 1b)")
	return []*Report{rep}, nil
}

// overallRows collects the baseline/ATMem/ideal comparison rows for one
// testbed (Figures 5 and 6).
func overallRows(s *Suite, tb TestbedID) (*Report, error) {
	rep := &Report{
		ID:    map[TestbedID]string{NVM: "fig5", KNL: "fig6"}[tb],
		Title: "Per-iteration execution time by placement",
		Columns: []string{"app", "dataset", "baseline(s)", "atmem(s)", "ideal(s)",
			"atmem-speedup", "vs-ideal", "data-ratio", "degraded", "skipped-bytes", "faults"},
	}
	for _, app := range evalApps {
		for _, ds := range evalDatasets {
			base, err := s.Run(RunConfig{Testbed: tb, App: app, Dataset: ds, Policy: Baseline})
			if err != nil {
				return nil, err
			}
			at, err := s.Run(RunConfig{Testbed: tb, App: app, Dataset: ds, Policy: ATMem})
			if err != nil {
				return nil, err
			}
			ideal, err := s.Run(RunConfig{Testbed: tb, App: app, Dataset: ds, Policy: idealPolicy(tb)})
			if err != nil {
				return nil, err
			}
			rep.AddRow(app, ds,
				secs(base.IterSeconds), secs(at.IterSeconds), secs(ideal.IterSeconds),
				ratio(base.IterSeconds/at.IterSeconds),
				pct(at.IterSeconds/ideal.IterSeconds-1),
				pct(at.DataRatio),
				fmt.Sprintf("%t", at.Migration.Degraded()),
				fmt.Sprintf("%d", at.Migration.SkippedBytes),
				fmt.Sprintf("%d", at.FaultEvents))
		}
	}
	return rep, nil
}

// fig5 is the NVM-DRAM overall-performance figure (paper Figure 5).
func fig5(s *Suite) ([]*Report, error) {
	rep, err := overallRows(s, NVM)
	if err != nil {
		return nil, err
	}
	rep.AddNote("paper: ATMem reaches 1.25x-8.4x over the all-NVM baseline")
	return []*Report{rep}, nil
}

// fig6 is the MCDRAM-DRAM overall-performance figure (paper Figure 6).
func fig6(s *Suite) ([]*Report, error) {
	rep, err := overallRows(s, KNL)
	if err != nil {
		return nil, err
	}
	rep.AddNote("paper: 1.1x-3x over the all-DRAM baseline; ATMem beats MCDRAM-p on datasets exceeding MCDRAM capacity")
	return []*Report{rep}, nil
}

// tab3 derives the paper's Table 3 (min/max ATMem slowdown vs the
// all-DRAM ideal per application) from the Figure 5 runs.
func tab3(s *Suite) ([]*Report, error) {
	rep := &Report{
		ID:      "tab3",
		Title:   "ATMem slowdown vs all-DRAM ideal (NVM-DRAM testbed)",
		Columns: []string{"slowdown", "bfs", "sssp", "pr", "bc", "cc"},
	}
	mins := make([]float64, len(evalApps))
	maxs := make([]float64, len(evalApps))
	for i, app := range evalApps {
		mins[i] = math.Inf(1)
		maxs[i] = math.Inf(-1)
		for _, ds := range evalDatasets {
			at, err := s.Run(RunConfig{Testbed: NVM, App: app, Dataset: ds, Policy: ATMem})
			if err != nil {
				return nil, err
			}
			ideal, err := s.Run(RunConfig{Testbed: NVM, App: app, Dataset: ds, Policy: AllFast})
			if err != nil {
				return nil, err
			}
			slow := at.IterSeconds/ideal.IterSeconds - 1
			mins[i] = math.Min(mins[i], slow)
			maxs[i] = math.Max(maxs[i], slow)
		}
	}
	minRow, maxRow := []string{"min"}, []string{"max"}
	for i := range evalApps {
		minRow = append(minRow, pct(mins[i]))
		maxRow = append(maxRow, pct(maxs[i]))
	}
	rep.AddRow(minRow...)
	rep.AddRow(maxRow...)
	rep.AddNote("paper Table 3: min 9%%-54%%, max 1.8x-3.0x per app")
	return []*Report{rep}, nil
}

// dataRatioReport renders Figures 7/8: the fraction of data ATMem placed
// on the high-performance memory, per app and dataset.
func dataRatioReport(s *Suite, id string, tb TestbedID) ([]*Report, error) {
	rep := &Report{
		ID:      id,
		Title:   "Data ratio selected onto fast memory by ATMem",
		Columns: append([]string{"dataset"}, evalApps...),
	}
	for _, ds := range evalDatasets {
		row := []string{ds}
		for _, app := range evalApps {
			at, err := s.Run(RunConfig{Testbed: tb, App: app, Dataset: ds, Policy: ATMem})
			if err != nil {
				return nil, err
			}
			row = append(row, pct(at.DataRatio))
		}
		rep.AddRow(row...)
	}
	rep.AddNote("paper: ATMem selects ~5%%-18%% of data overall (3.8%%-18.2%% on MCDRAM)")
	return []*Report{rep}, nil
}

func fig7(s *Suite) ([]*Report, error) { return dataRatioReport(s, "fig7", NVM) }
func fig8(s *Suite) ([]*Report, error) { return dataRatioReport(s, "fig8", KNL) }

// sweepEpsilons are the ε values swept for Figures 9/10; larger ε raises
// every object's tree-ratio threshold, shrinking the promoted selection.
var sweepEpsilons = []float64{
	0.02, 0.05, 0.08, 0.1, 0.11, 0.12, 0.13, 0.14, 0.15, 0.17,
	0.2, 0.25, 0.3, 0.4, 0.5, 0.65, 0.8, 0.999,
}

// epsilonSweep renders Figures 9/10: BFS time as a function of the data
// ratio obtained by sweeping ε (§7.2).
func epsilonSweep(s *Suite, id string, tb TestbedID) ([]*Report, error) {
	var reports []*Report
	for _, ds := range evalDatasets {
		rep := &Report{
			ID:      fmt.Sprintf("%s-%s", id, ds),
			Title:   fmt.Sprintf("BFS on %s: time vs data ratio (ε sweep)", ds),
			Columns: []string{"epsilon", "data-ratio", "time(s)"},
		}
		type point struct {
			eps, ratio, t float64
		}
		var pts []point
		for _, eps := range sweepEpsilons {
			r, err := s.Run(RunConfig{
				Testbed: tb, App: "bfs", Dataset: ds,
				Policy: ATMem, Epsilon: eps, SkipValidate: true,
			})
			if err != nil {
				return nil, err
			}
			pts = append(pts, point{eps, r.DataRatio, r.IterSeconds})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].ratio < pts[j].ratio })
		for _, p := range pts {
			rep.AddRow(fmt.Sprintf("%.3f", p.eps), pct(p.ratio), secs(p.t))
		}
		// The automatic configuration's operating point.
		auto, err := s.Run(RunConfig{Testbed: tb, App: "bfs", Dataset: ds, Policy: ATMem})
		if err != nil {
			return nil, err
		}
		rep.AddNote("default ε operating point: ratio %s at %ss", pct(auto.DataRatio), secs(auto.IterSeconds))
		reports = append(reports, rep)
	}
	return reports, nil
}

func fig9(s *Suite) ([]*Report, error)  { return epsilonSweep(s, "fig9", NVM) }
func fig10(s *Suite) ([]*Report, error) { return epsilonSweep(s, "fig10", KNL) }

// tab4 compares the multi-stage multi-threaded migration against the
// mbind engine on PageRank: post-migration TLB misses and migration time
// (paper Table 4).
func tab4(s *Suite) ([]*Report, error) {
	rep := &Report{
		ID:    "tab4",
		Title: "Reduction vs mbind (values are mbind/ATMem)",
		Columns: []string{"dataset",
			"nvm-tlb-misses", "nvm-time", "knl-tlb-misses", "knl-time"},
	}
	type agg struct{ tlb, t []float64 }
	sums := map[TestbedID]*agg{NVM: {}, KNL: {}}
	for _, ds := range evalDatasets {
		row := []string{ds}
		for _, tb := range []TestbedID{NVM, KNL} {
			at, err := s.Run(RunConfig{Testbed: tb, App: "pr", Dataset: ds,
				Policy: ATMem, Mechanism: atmem.MigrateATMem})
			if err != nil {
				return nil, err
			}
			mb, err := s.Run(RunConfig{Testbed: tb, App: "pr", Dataset: ds,
				Policy: ATMem, Mechanism: atmem.MigrateMbind})
			if err != nil {
				return nil, err
			}
			tlbRed := float64(mb.PostTLBMisses) / float64(max(at.PostTLBMisses, 1))
			timeRed := mb.Migration.Seconds / at.Migration.Seconds
			row = append(row, ratio(tlbRed), ratio(timeRed))
			sums[tb].tlb = append(sums[tb].tlb, tlbRed)
			sums[tb].t = append(sums[tb].t, timeRed)
		}
		rep.AddRow(row...)
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	rep.AddRow("avg",
		ratio(avg(sums[NVM].tlb)), ratio(avg(sums[NVM].t)),
		ratio(avg(sums[KNL].tlb)), ratio(avg(sums[KNL].t)))
	rep.AddNote("paper Table 4 averages: NVM-DRAM 20.98x TLB / 2.07x time; MCDRAM-DRAM 1.72x TLB / 5.32x time")
	return []*Report{rep}, nil
}

// overhead reproduces the §7.4 analysis: profiling cost relative to an
// unprofiled first iteration, and how many optimized iterations amortize
// profiling + migration.
func overhead(s *Suite) ([]*Report, error) {
	rep := &Report{
		ID:    "overhead",
		Title: "ATMem overhead: profiling cost and amortization (NVM-DRAM testbed)",
		Columns: []string{"app", "dataset", "profiling-overhead",
			"migration(s)", "gain-per-iter(s)", "amortize-iters"},
	}
	for _, app := range evalApps {
		for _, ds := range []string{"pokec", "friendster"} {
			base, err := s.Run(RunConfig{Testbed: NVM, App: app, Dataset: ds, Policy: Baseline})
			if err != nil {
				return nil, err
			}
			at, err := s.Run(RunConfig{Testbed: NVM, App: app, Dataset: ds, Policy: ATMem})
			if err != nil {
				return nil, err
			}
			// Profiling overhead: the ATMem run's first iteration is
			// cold AND profiled; the baseline's first iteration is cold
			// and unprofiled. Same placement (both on the slow tier).
			profOvh := at.FirstIterSeconds/base.FirstIterSeconds - 1
			gain := base.IterSeconds - at.IterSeconds
			amort := "n/a"
			if gain > 0 {
				amort = fmt.Sprintf("%.1f", (at.Migration.Seconds+
					(at.FirstIterSeconds-base.FirstIterSeconds))/gain)
			}
			rep.AddRow(app, ds, pct(profOvh),
				secs(at.Migration.Seconds), secs(gain), amort)
		}
	}
	rep.AddNote("paper: profiling < 10%% of the first iteration; overhead amortized within a few iterations")
	return []*Report{rep}, nil
}
