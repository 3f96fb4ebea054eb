package apps

import (
	"testing"

	"atmem"
	"atmem/graph"
)

// runKernel sets up a kernel on the given testbed/policy, runs one
// iteration, and validates the result.
func runKernel(t *testing.T, name, dataset string, tb atmem.Testbed, policy atmem.PlacementPolicy) (Kernel, IterationResult) {
	t.Helper()
	rt, err := atmem.New(tb, atmem.WithPlacementPolicy(policy))
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Setup(rt, dataset); err != nil {
		t.Fatal(err)
	}
	res := k.RunIteration(rt)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	return k, res
}

func TestFactoryKnowsAllKernels(t *testing.T) {
	for _, name := range append(Names(), "spmv") {
		k, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.Name() != name {
			t.Errorf("kernel %q reports name %q", name, k.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestNamesMatchPaperOrder(t *testing.T) {
	want := []string{"bfs", "sssp", "pr", "bc", "cc"}
	got := Names()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestAllKernelsValidateOnPokec(t *testing.T) {
	for _, name := range append(Names(), "spmv") {
		name := name
		t.Run(name, func(t *testing.T) {
			_, res := runKernel(t, name, "pokec", atmem.NVMDRAM(), atmem.PaperPolicy())
			if res.Seconds <= 0 {
				t.Error("no simulated time")
			}
			if len(res.Phases) == 0 {
				t.Error("no phases recorded")
			}
		})
	}
}

func TestKernelsValidateOnKNLTestbed(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			runKernel(t, name, "pokec", atmem.MCDRAMDRAM(), atmem.PreferFastPolicy())
		})
	}
}

func TestKernelsValidateAfterOptimize(t *testing.T) {
	// The critical integrity property: migration must not change any
	// kernel's results.
	for _, name := range append(Names(), "spmv") {
		name := name
		t.Run(name, func(t *testing.T) {
			rt, err := atmem.New(atmem.NVMDRAM())
			if err != nil {
				t.Fatal(err)
			}
			k, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Setup(rt, "pokec"); err != nil {
				t.Fatal(err)
			}
			rt.ProfilingStart()
			k.RunIteration(rt)
			if n := rt.ProfilingStop(); n == 0 {
				t.Fatal("no profiler samples")
			}
			rep, err := rt.Optimize()
			if err != nil {
				t.Fatal(err)
			}
			if rep.SelectedBytes == 0 {
				t.Error("analyzer selected nothing")
			}
			ratio := rep.DataRatio()
			if ratio <= 0 || ratio > 0.6 {
				t.Errorf("data ratio %.2f out of plausible range", ratio)
			}
			k.RunIteration(rt)
			if err := k.Validate(); err != nil {
				t.Fatalf("results corrupted by migration: %v", err)
			}
		})
	}
}

func TestATMemImprovesSkewedWorkloads(t *testing.T) {
	// End-to-end speedup sanity on the NVM testbed for the workloads
	// with strong hot regions (PR is the paper's Table 4 subject).
	for _, name := range []string{"pr", "bc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			base := measure(t, name, false)
			at := measure(t, name, true)
			if at >= base {
				t.Errorf("ATMem (%.6fs) not faster than baseline (%.6fs)", at, base)
			}
		})
	}
}

// measure returns the post-warm iteration time on twitter, profiling
// and optimizing after the first iteration when asked (the ATMem arm).
func measure(t *testing.T, name string, optimize bool) float64 {
	t.Helper()
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Setup(rt, "twitter"); err != nil {
		t.Fatal(err)
	}
	if optimize {
		rt.ProfilingStart()
	}
	k.RunIteration(rt)
	if optimize {
		rt.ProfilingStop()
		if _, err := rt.Optimize(); err != nil {
			t.Fatal(err)
		}
	}
	k.RunIteration(rt)
	return k.RunIteration(rt).Seconds
}

func TestBFSLevelsMatchReferenceFromArbitraryRoots(t *testing.T) {
	g, err := graph.Load("pokec")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []int{1, 77, g.NumVertices() - 1} {
		rt, err := atmem.New(atmem.NVMDRAM())
		if err != nil {
			t.Fatal(err)
		}
		b := &BFS{Root: root}
		if err := b.Setup(rt, "pokec"); err != nil {
			t.Fatal(err)
		}
		b.RunIteration(rt)
		if err := b.Validate(); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

func TestSSSPDistancesAreShortestPaths(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	s := &SSSP{}
	if err := s.Setup(rt, "pokec"); err != nil {
		t.Fatal(err)
	}
	s.RunIteration(rt)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Triangle inequality spot check over edges.
	g, _ := graph.Load("pokec")
	dist := s.Distances()
	for v := 0; v < g.NumVertices(); v++ {
		if dist[v] == infDist {
			continue
		}
		for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
			d := g.Edges[i]
			if dist[d] > dist[v]+g.Weights[i]+1e-3 {
				t.Fatalf("edge %d->%d violates relaxation: %v > %v + %v",
					v, d, dist[d], dist[v], g.Weights[i])
			}
		}
	}
}

func TestCCLabelsAreComponentMinima(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	k := &CC{}
	if err := k.Setup(rt, "pokec"); err != nil {
		t.Fatal(err)
	}
	k.RunIteration(rt)
	labels := k.Labels()
	sym, _ := graph.LoadSymmetric("pokec")
	for v := 0; v < sym.NumVertices(); v++ {
		if labels[v] > uint32(v) {
			t.Fatalf("label[%d] = %d exceeds own id", v, labels[v])
		}
		for _, d := range sym.Neighbors(v) {
			if labels[v] != labels[d] {
				t.Fatalf("edge %d-%d crosses labels %d/%d", v, d, labels[v], labels[d])
			}
		}
	}
}

func TestPageRankMassConservation(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	p := &PageRank{Iterations: 2}
	if err := p.Setup(rt, "pokec"); err != nil {
		t.Fatal(err)
	}
	p.RunIteration(rt)
	var sum float64
	for _, r := range p.Ranks() {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Total mass stays at most 1 (dangling vertices leak mass in the
	// push formulation, so it can be below 1, never above).
	if sum > 1.000001 {
		t.Errorf("rank mass %v exceeds 1", sum)
	}
	if sum < 0.1 {
		t.Errorf("rank mass %v collapsed", sum)
	}
}

// TestOneWorkerPageRankIsExact pins the one-worker scatter's plain adds:
// they run in the serial reference's order, so every rank equals the
// reference bit for bit, not just within Validate's tolerance.
func TestOneWorkerPageRankIsExact(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	p := &PageRank{Iterations: 3}
	if err := p.Setup(rt, "pokec"); err != nil {
		t.Fatal(err)
	}
	p.RunIteration(rt)
	want := referencePageRank(p.g, 3, p.Damping)
	got := p.Ranks()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("rank[%d] = %v, want %v exactly", v, got[v], want[v])
		}
	}
}

func TestBCScoresNonNegative(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	b := &BC{}
	if err := b.Setup(rt, "pokec"); err != nil {
		t.Fatal(err)
	}
	b.RunIteration(rt)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	anyPositive := false
	for _, s := range b.Scores() {
		if s < 0 {
			t.Fatal("negative centrality")
		}
		if s > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("all centralities zero")
	}
}

func TestSpMVRepeatedIterations(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	s := &SpMV{}
	if err := s.Setup(rt, "pokec"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.RunIteration(rt)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedBoundsCoverAllVertices(t *testing.T) {
	g, err := graph.Load("twitter")
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3, 8, 16} {
		b := balancedBounds(g.Offsets, threads)
		if len(b) != threads+1 || b[0] != 0 || b[threads] != g.NumVertices() {
			t.Fatalf("threads=%d bounds=%v", threads, b)
		}
		total := uint64(g.NumEdges())
		for ti := 0; ti < threads; ti++ {
			if b[ti] > b[ti+1] {
				t.Fatalf("non-monotone bounds %v", b)
			}
			edges := g.Offsets[b[ti+1]] - g.Offsets[b[ti]]
			// Each partition within 3x of the fair share (hub vertices
			// cannot be split, so exact balance is impossible).
			if threads > 1 && edges > 3*total/uint64(threads)+uint64(g.NumVertices()) {
				t.Errorf("partition %d has %d of %d edges", ti, edges, total)
			}
		}
	}
}

func TestIterationResultAccounting(t *testing.T) {
	_, res := runKernel(t, "bfs", "pokec", atmem.NVMDRAM(), atmem.PaperPolicy())
	if res.LLCMisses() == 0 {
		t.Error("no LLC misses recorded")
	}
	var sum float64
	for _, p := range res.Phases {
		sum += p.Seconds()
	}
	if sum != res.Seconds {
		t.Errorf("phase sum %v != total %v", sum, res.Seconds)
	}
	_ = res.TLBMisses()
}

func TestDOBFSMatchesBFS(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	d := &DOBFS{}
	if err := d.Setup(rt, "twitter"); err != nil {
		t.Fatal(err)
	}
	d.RunIteration(rt)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// On a hub-rooted social graph the traversal must actually switch
	// directions (that is the point of the hybrid).
	if d.PullRounds == 0 {
		t.Error("direction-optimizing BFS never switched to bottom-up")
	}
	if d.PushRounds == 0 {
		t.Error("direction-optimizing BFS never ran top-down")
	}
}

func TestDOBFSViaFactoryAndOptimize(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	k, err := New("dobfs")
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
		t.Fatal(err)
	}
}
