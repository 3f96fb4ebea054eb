package atmem_test

import (
	"hash/crc32"
	"reflect"
	"testing"

	"atmem"
	"atmem/apps"
	"atmem/graph"
	"atmem/internal/core"
	"atmem/internal/faultinject"
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

// TestSoloRuntimeMatchesOneTenantBroker pins the ownership model: a solo
// runtime is the one guaranteed tenant of a private broker, so running
// the same seeded epoch mix on a solo runtime and on a runtime attached
// (WithTenant) to a broker with one guaranteed tenant holding the whole
// fast tier gives identical epoch reports, scorecards, simulated clocks
// and object bytes. The mix rotates BFS, PageRank and CC on one
// simulated worker (so every kernel is deterministic), raises the
// capacity reserve mid-run, and runs under a fault schedule with the
// scrubber on. On the 2.75 MiB fast tier the pressure watermarks bind
// where the mapped pages and the owned bytes of partial-page tails
// differ, so a solo runtime that weighed its occupancy by anything but
// its tenant sub-ledger would diverge.
func TestSoloRuntimeMatchesOneTenantBroker(t *testing.T) {
	const (
		dataset = "solo-tenant-social"
		fastCap = 11 << 18
		epochs  = 9
	)
	graph.RegisterDataset(dataset, func() (*graph.Graph, error) {
		return graph.GenerateSocial(dataset, graph.SocialParams{
			NumVertices:     4096,
			AvgDegree:       16,
			DegreeSkew:      0.55,
			PopularityAlpha: 0.85,
			LocalFraction:   0.4,
			CommunitySize:   64,
			Seed:            7,
		})
	})
	p := atmem.NVMDRAM().Params()
	p.Threads = 1
	p.Tiers[memsim.TierFast].CapacityBytes = fastCap
	tb := atmem.CustomTestbed(p)

	type outcome struct {
		Epochs     []atmem.EpochReport
		Scorecards []atmem.Scorecard
		SimS       float64
		Bytes      map[string]uint32
	}
	run := func(bk *atmem.Broker) outcome {
		opts := []atmem.Option{
			atmem.WithPlacementPolicy(atmem.PaperPolicy()),
			atmem.WithScrubber(),
			atmem.WithFaultSchedule(faultinject.Schedule{Seed: 9, Faults: []faultinject.Fault{
				{Op: faultinject.OpReserve, Prob: 0.3, Err: memsim.ErrNoCapacity},
				{Kind: faultinject.Corrupt, Nth: 3},
			}}),
		}
		if bk != nil {
			tn, err := bk.Admit(atmem.TenantSpec{Name: "only", Class: atmem.ClassGuaranteed, FloorBytes: fastCap})
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, atmem.WithTenant(tn))
		}
		rt, err := atmem.New(tb, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var ks []apps.Kernel
		for _, name := range []string{"bfs", "pr", "cc"} {
			k, err := apps.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Setup(rt, dataset); err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		var out outcome
		for e := 0; e < epochs; e++ {
			if e == 5 {
				rt.SetCapacityReserve(fastCap - 384<<10)
			}
			k := ks[e%len(ks)]
			rep, err := rt.RunEpoch(k.Name(), func() { k.RunIteration(rt) })
			if err != nil {
				t.Fatalf("epoch %d: %v", e+1, err)
			}
			out.Epochs = append(out.Epochs, rep)
			if bk != nil {
				bk.Rebalance()
			}
		}
		for _, k := range ks {
			if err := k.Validate(); err != nil {
				t.Fatalf("%s: %v", k.Name(), err)
			}
		}
		if len(rt.FaultEvents()) == 0 || rt.HealthStats().CorruptedChunks == 0 {
			t.Fatalf("the fault schedule never fired: %+v", rt.HealthStats())
		}
		out.Scorecards, out.SimS = rt.Scorecards(), rt.SimSeconds()
		out.Bytes = make(map[string]uint32)
		for _, o := range rt.Objects() {
			out.Bytes[o.Name()] = crc32.ChecksumIEEE(o.Bytes())
		}
		return out
	}
	solo := run(nil)
	tenant := run(atmem.NewBroker(tb, atmem.BrokerConfig{}))
	var moved, clipped, pressure uint64
	for _, rep := range solo.Epochs {
		moved += rep.Migration.BytesMoved
		clipped += rep.Migration.ClippedBytes
		pressure += rep.Migration.PressureDemotedBytes
	}
	t.Logf("moved %d, clipped %d, pressure-demoted %d bytes", moved, clipped, pressure)
	if moved == 0 || clipped == 0 {
		t.Fatalf("moved %d bytes, clipped %d: the budget never bound and the comparison is vacuous", moved, clipped)
	}
	for i := range solo.Epochs {
		if !reflect.DeepEqual(tenant.Epochs[i], solo.Epochs[i]) {
			t.Errorf("epoch %d differs on the one-tenant broker:\n got %+v\nwant %+v", i+1, tenant.Epochs[i], solo.Epochs[i])
		}
	}
	if !reflect.DeepEqual(tenant.Scorecards, solo.Scorecards) {
		t.Errorf("scorecards differ:\n got %+v\nwant %+v", tenant.Scorecards, solo.Scorecards)
	}
	if tenant.SimS != solo.SimS {
		t.Errorf("simulated clock %v on the one-tenant broker, %v solo", tenant.SimS, solo.SimS)
	}
	if !reflect.DeepEqual(tenant.Bytes, solo.Bytes) {
		t.Errorf("object bytes differ:\n got %v\nwant %v", tenant.Bytes, solo.Bytes)
	}
}
