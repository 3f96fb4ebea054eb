package apps

import (
	"testing"

	"atmem"
	"atmem/graph"
)

// TestBFSVariantsAgree: plain push BFS and the direction-optimizing
// hybrid must compute identical levels from the same root.
func TestBFSVariantsAgree(t *testing.T) {
	rt1, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	plain := &BFS{}
	if err := plain.Setup(rt1, "pokec"); err != nil {
		t.Fatal(err)
	}
	plain.RunIteration(rt1)

	rt2, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	hybrid := &DOBFS{}
	if err := hybrid.Setup(rt2, "pokec"); err != nil {
		t.Fatal(err)
	}
	hybrid.RunIteration(rt2)

	a, b := plain.Levels(), hybrid.Levels()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("level[%d]: bfs %d vs dobfs %d", v, a[v], b[v])
		}
	}
}

// TestSSSPAgreesWithBFSOnUnitWeights: with every edge weight forced to
// one, shortest-path distances equal BFS levels.
func TestSSSPAgreesWithBFSOnUnitWeights(t *testing.T) {
	base, err := graph.Load("pokec")
	if err != nil {
		t.Fatal(err)
	}
	graph.RegisterDataset("pokec-unit", func() (*graph.Graph, error) {
		g := &graph.Graph{
			Name:    "pokec-unit",
			Offsets: base.Offsets,
			Edges:   base.Edges,
			Weights: make([]float32, len(base.Edges)),
		}
		for i := range g.Weights {
			g.Weights[i] = 1
		}
		return g, nil
	})

	rt1, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	s := &SSSP{}
	if err := s.Setup(rt1, "pokec-unit"); err != nil {
		t.Fatal(err)
	}
	s.RunIteration(rt1)

	rt2, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	b := &BFS{}
	if err := b.Setup(rt2, "pokec-unit"); err != nil {
		t.Fatal(err)
	}
	b.RunIteration(rt2)

	dist, lvl := s.Distances(), b.Levels()
	for v := range lvl {
		switch {
		case lvl[v] == -1:
			if dist[v] != infDist {
				t.Fatalf("vertex %d unreachable by BFS but dist %v", v, dist[v])
			}
		case float32(lvl[v]) != dist[v]:
			t.Fatalf("vertex %d: level %d vs unit-weight dist %v", v, lvl[v], dist[v])
		}
	}
}

// TestCCAgreesWithBFSReachability: on the symmetrized graph, two
// vertices share a CC label iff an (undirected) path connects them;
// cross-check labels against a BFS from the component minimum.
func TestCCAgreesWithBFSReachability(t *testing.T) {
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
	// BFS from the global minimum-label vertex (usually 0): everything
	// it reaches must carry its label and vice versa.
	root := 0
	lvl := referenceBFS(sym, root)
	rootLabel := labels[root]
	for v := range lvl {
		reachable := lvl[v] != -1
		sameLabel := labels[v] == rootLabel
		if reachable != sameLabel {
			t.Fatalf("vertex %d: reachable=%v label-match=%v", v, reachable, sameLabel)
		}
	}
}

// TestPageRankOrderIsDegreeCorrelated: hub vertices must end with higher
// rank than the median vertex — a sanity property of any correct PR.
func TestPageRankOrderIsDegreeCorrelated(t *testing.T) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	p := &PageRank{Iterations: 8}
	if err := p.Setup(rt, "twitter"); err != nil {
		t.Fatal(err)
	}
	p.RunIteration(rt)
	g, _ := graph.Load("twitter")
	// In-degree hub: the vertex with most in-edges.
	in := make([]int, g.NumVertices())
	for _, d := range g.Edges {
		in[d]++
	}
	hub, best := 0, -1
	for v, c := range in {
		if c > best {
			hub, best = v, c
		}
	}
	ranks := p.Ranks()
	median := ranks[len(ranks)/2]
	if ranks[hub] <= median {
		t.Errorf("hub rank %g not above median %g", ranks[hub], median)
	}
}
