package atmem_test

import (
	"testing"

	"atmem"
	"atmem/apps"
	"atmem/internal/core"
	"atmem/internal/memsim"
)

// TestDeterministicSimulation: two fresh runtimes running the same
// scatter kernel produce identical simulated times (PageRank's access
// streams are fixed per thread regardless of interleaving).
func TestDeterministicSimulation(t *testing.T) {
	run := func() float64 {
		rt, err := atmem.New(atmem.NVMDRAM())
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New("pr")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, "pokec"); err != nil {
			t.Fatal(err)
		}
		k.RunIteration(rt)
		return k.RunIteration(rt).Seconds
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulated times differ across identical runs: %v vs %v", a, b)
	}
}

// TestKNLCapacityPressure: the three large datasets exceed the scaled
// MCDRAM capacity, as on the real machine (§7.2) — all-fast placement
// must fail for them while the preferred policy spills gracefully.
func TestKNLCapacityPressure(t *testing.T) {
	for _, ds := range []string{"twitter", "rmat27", "friendster"} {
		rt, err := atmem.New(atmem.MCDRAMDRAM(), atmem.WithPlacementPolicy(atmem.AllFastPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New("pr")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, ds); err == nil {
			t.Errorf("%s: all-MCDRAM placement succeeded but must exceed capacity", ds)
		}
	}
	// pokec and rmat24 fit entirely, as in the paper's Figure 10.
	for _, ds := range []string{"pokec", "rmat24"} {
		rt, err := atmem.New(atmem.MCDRAMDRAM(), atmem.WithPlacementPolicy(atmem.AllFastPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New("pr")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, ds); err != nil {
			t.Errorf("%s: should fit in MCDRAM: %v", ds, err)
		}
	}
	// PreferFast always succeeds by spilling to DDR4.
	rt, err := atmem.New(atmem.MCDRAMDRAM(), atmem.WithPlacementPolicy(atmem.PreferFastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	k, err := apps.New("pr")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Setup(rt, "friendster"); err != nil {
		t.Errorf("preferred policy failed to spill: %v", err)
	}
}

// TestEpsilonSweepEndToEnd: sweeping ε through Options.Analyzer spans a
// wide data-ratio range and never corrupts results (the fig9/fig10
// mechanism at the API level).
func TestEpsilonSweepEndToEnd(t *testing.T) {
	ratioAt := func(eps float64) float64 {
		cfg := core.DefaultConfig()
		cfg.Epsilon = eps
		rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithAnalyzer(cfg))
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New("bfs")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, "pokec"); err != nil {
			t.Fatal(err)
		}
		rt.ProfilingStart()
		k.RunIteration(rt)
		rt.ProfilingStop()
		if _, err := rt.Optimize(); err != nil {
			t.Fatal(err)
		}
		k.RunIteration(rt)
		if err := k.Validate(); err != nil {
			t.Fatalf("eps=%v corrupted results: %v", eps, err)
		}
		return rt.FastDataRatio()
	}
	greedy := ratioAt(0.02)
	frugal := ratioAt(0.999)
	if greedy < 0.5 {
		t.Errorf("ε=0.02 selected only %.1f%%, want most of the data", 100*greedy)
	}
	if frugal > 0.3 {
		t.Errorf("ε=0.999 selected %.1f%%, want a small fraction", 100*frugal)
	}
	if frugal >= greedy {
		t.Errorf("sweep not monotone: %.2f at 0.999 >= %.2f at 0.02", frugal, greedy)
	}
}

// TestFullPipelineOnBothTestbeds exercises profile→analyze→migrate→rerun
// for every kernel on both testbeds with capacity budgeting active.
func TestFullPipelineOnBothTestbeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	for _, tb := range []atmem.Testbed{atmem.NVMDRAM(), atmem.MCDRAMDRAM()} {
		for _, name := range []string{"bfs", "pr", "cc"} {
			t.Run(tb.Name()+"/"+name, func(t *testing.T) {
				rt, err := atmem.New(tb)
				if err != nil {
					t.Fatal(err)
				}
				k, err := apps.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Setup(rt, "rmat24"); err != nil {
					t.Fatal(err)
				}
				rt.ProfilingStart()
				k.RunIteration(rt)
				rt.ProfilingStop()
				rep, err := rt.Optimize()
				if err != nil {
					t.Fatal(err)
				}
				// The selection must respect the fast tier's capacity.
				fastCap := tb.Params().Tiers[memsim.TierFast].CapacityBytes
				if rep.SelectedBytes > fastCap {
					t.Errorf("selected %d exceeds fast capacity %d", rep.SelectedBytes, fastCap)
				}
				k.RunIteration(rt)
				if err := k.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMigrationReportConsistency: the migration report's byte accounting
// agrees with the actual placement.
func TestMigrationReportConsistency(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	k, err := apps.New("pr")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Setup(rt, "pokec"); err != nil {
		t.Fatal(err)
	}
	rt.ProfilingStart()
	k.RunIteration(rt)
	rt.ProfilingStop()
	rep, err := rt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampledBytes+rep.EstimatedBytes != rep.SelectedBytes {
		t.Errorf("byte split %d+%d != selected %d",
			rep.SampledBytes, rep.EstimatedBytes, rep.SelectedBytes)
	}
	var fast uint64
	for _, op := range rt.PlacementSummary() {
		fast += op.FastBytes
	}
	// Everything selected was moved to fast memory (page rounding can
	// add up to a page per region).
	if fast < rep.SelectedBytes {
		t.Errorf("fast bytes %d below selected %d", fast, rep.SelectedBytes)
	}
}
