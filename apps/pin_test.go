package apps

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"atmem"
	"atmem/graph"
)

// pinnedKernelStats holds, per kernel, the FNV-64a hash of every phase's
// PhaseStats over a profiled iteration, an Optimize, and a second
// iteration on the mixed placement. A change to how kernels charge the
// simulator (element calls, bulk ranges, gathers) must leave every hash
// as is: the simulated statistics are the reproduction's results.
var pinnedKernelStats = map[string]string{
	"bfs":   "84b209b8d87e7070",
	"dobfs": "1a44e082b915324f",
	"sssp":  "15f8dd7da4823b8f",
	"pr":    "fa4d4638e215e415",
	"bc":    "5e930de95ee30466",
	"cc":    "088ce9db8b29867f",
	"spmv":  "4ae8ec8289fb5508",
}

// TestKernelStatsPinned runs all seven kernels with one simulated thread
// (so the CAS claims are deterministic) on a small social graph and
// compares the hash of their phase statistics with pinnedKernelStats.
// perfbench's digests cover bfs, pr and cc only; this pins the rest.
func TestKernelStatsPinned(t *testing.T) {
	const dataset = "pin-social"
	graph.RegisterDataset(dataset, func() (*graph.Graph, error) {
		return graph.GenerateSocial(dataset, graph.SocialParams{
			NumVertices:     4096,
			AvgDegree:       12,
			DegreeSkew:      0.55,
			PopularityAlpha: 0.85,
			LocalFraction:   0.4,
			CommunitySize:   64,
			Seed:            17,
		})
	})
	for _, name := range []string{"bfs", "dobfs", "sssp", "pr", "bc", "cc", "spmv"} {
		t.Run(name, func(t *testing.T) {
			rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithThreads(1))
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
			rt.ProfilingStart()
			first := k.RunIteration(rt)
			rt.ProfilingStop()
			if _, err := rt.Optimize(); err != nil {
				t.Fatal(err)
			}
			second := k.RunIteration(rt)
			if err := k.Validate(); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, p := range append(first.Phases, second.Phases...) {
				fmt.Fprintf(h, "%s %+v\n", p.Name, p.Stats)
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != pinnedKernelStats[name] {
				t.Errorf("%s phase-stats hash = %s, want %s (%d phases)",
					name, got, pinnedKernelStats[name], len(first.Phases)+len(second.Phases))
			}
		})
	}
}

// TestSortUnique checks the frontier merge against a comparison sort
// and dedup, on inputs with duplicates, gaps and word-boundary values.
func TestSortUnique(t *testing.T) {
	const n = 1000
	seen := make([]uint64, n/64+1)
	x := uint32(7)
	for trial := 0; trial < 50; trial++ {
		xs := make([]uint32, trial*7)
		for i := range xs {
			x = x*1103515245 + 12345
			xs[i] = x % n
			if i%5 == 0 {
				xs[i] = uint32(64 * (i % 15)) // word boundaries, repeated
			}
		}
		want := slices.Clone(xs)
		slices.Sort(want)
		want = slices.Compact(want)
		got := sortUnique(xs, seen)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: sortUnique = %v, want %v", trial, got, want)
		}
		if slices.ContainsFunc(seen, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("trial %d: bitmap not left clear", trial)
		}
	}
}
