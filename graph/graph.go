// Package graph provides the graph substrate of the ATMem reproduction:
// compressed-sparse-row (CSR) graphs, deterministic generators that
// produce scaled-down analogues of the paper's five datasets (Table 2),
// and skew statistics.
//
// All generators are seeded and deterministic so every experiment is
// reproducible bit-for-bit.
package graph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Edge is one directed edge of an edge list.
type Edge struct {
	Src, Dst uint32
}

// Graph is a directed graph in CSR form. The out-neighbours of vertex v
// are Edges[Offsets[v]:Offsets[v+1]]; Weights, when non-nil, is parallel
// to Edges.
type Graph struct {
	// Name labels the graph in reports.
	Name string
	// Offsets has NumVertices+1 entries.
	Offsets []uint64
	// Edges holds destination vertex ids.
	Edges []uint32
	// Weights holds per-edge weights (nil for unweighted graphs).
	Weights []float32
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the out-neighbour slice of v (not a copy).
func (g *Graph) Neighbors(v int) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// Validate checks CSR structural invariants.
func (g *Graph) Validate() error {
	if len(g.Offsets) == 0 {
		return fmt.Errorf("graph %q: empty offsets", g.Name)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph %q: offsets[0] = %d, want 0", g.Name, g.Offsets[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph %q: offsets not monotone at %d", g.Name, v)
		}
	}
	if g.Offsets[n] != uint64(len(g.Edges)) {
		return fmt.Errorf("graph %q: offsets[n]=%d, want %d edges", g.Name, g.Offsets[n], len(g.Edges))
	}
	for i, d := range g.Edges {
		if int(d) >= n {
			return fmt.Errorf("graph %q: edge %d targets out-of-range vertex %d", g.Name, i, d)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Edges) {
		return fmt.Errorf("graph %q: %d weights for %d edges", g.Name, len(g.Weights), len(g.Edges))
	}
	return nil
}

// FromEdges builds a CSR graph from an edge list over numVertices
// vertices. Edges are sorted by (src, dst); when dedup is true, duplicate
// (src, dst) pairs are collapsed. Self-loops are kept (graph kernels
// tolerate them).
func FromEdges(name string, numVertices int, edges []Edge, dedup bool) (*Graph, error) {
	if numVertices <= 0 {
		return nil, fmt.Errorf("graph %q: non-positive vertex count", name)
	}
	for _, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph %q: edge (%d,%d) out of range", name, e.Src, e.Dst)
		}
	}
	// Counting sort by source, then an independent destination sort per
	// adjacency segment, parallel across vertex ranges. The result is the
	// edges in (src, dst) order — the same canonical order the former
	// comparison sort produced, so the CSR is bit-identical — without the
	// O(m log m) global sort that dominates paper-scale graph builds.
	counts := make([]uint64, numVertices+1)
	for _, e := range edges {
		counts[e.Src+1]++
	}
	for v := 0; v < numVertices; v++ {
		counts[v+1] += counts[v]
	}
	tmp := make([]uint32, len(edges))
	cursor := make([]uint64, numVertices)
	copy(cursor, counts[:numVertices])
	for _, e := range edges {
		tmp[cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	// cursor is reused below as the per-vertex deduped degree.
	parallelOverVertices(numVertices, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			seg := tmp[counts[v]:counts[v+1]]
			slices.Sort(seg)
			n := len(seg)
			if dedup && n > 1 {
				n = 1
				for i := 1; i < len(seg); i++ {
					if seg[i] != seg[i-1] {
						seg[n] = seg[i]
						n++
					}
				}
			}
			cursor[v] = uint64(n)
		}
	})
	g := &Graph{
		Name:    name,
		Offsets: make([]uint64, numVertices+1),
	}
	for v := 0; v < numVertices; v++ {
		g.Offsets[v+1] = g.Offsets[v] + cursor[v]
	}
	g.Edges = make([]uint32, g.Offsets[numVertices])
	parallelOverVertices(numVertices, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			copy(g.Edges[g.Offsets[v]:g.Offsets[v+1]], tmp[counts[v]:])
		}
	})
	return g, nil
}

// parallelOverVertices splits [0, n) into one contiguous range per
// available core and runs fn on each concurrently. The split affects
// only scheduling, never results: callers touch disjoint state per
// vertex.
func parallelOverVertices(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Reverse returns the transpose of g (weights, if any, follow their
// edges).
func (g *Graph) Reverse() *Graph {
	n := g.NumVertices()
	r := &Graph{
		Name:    g.Name + "-rev",
		Offsets: make([]uint64, n+1),
		Edges:   make([]uint32, len(g.Edges)),
	}
	if g.Weights != nil {
		r.Weights = make([]float32, len(g.Edges))
	}
	for _, d := range g.Edges {
		r.Offsets[d+1]++
	}
	for v := 0; v < n; v++ {
		r.Offsets[v+1] += r.Offsets[v]
	}
	cursor := make([]uint64, n)
	copy(cursor, r.Offsets[:n])
	for src := 0; src < n; src++ {
		for i := g.Offsets[src]; i < g.Offsets[src+1]; i++ {
			d := g.Edges[i]
			pos := cursor[d]
			cursor[d]++
			r.Edges[pos] = uint32(src)
			if g.Weights != nil {
				r.Weights[pos] = g.Weights[i]
			}
		}
	}
	return r
}

// Symmetrize returns a graph with every edge present in both directions
// (deduplicated). Weights are dropped; call AttachWeights afterwards if
// needed.
func (g *Graph) Symmetrize() (*Graph, error) {
	edges := make([]Edge, 0, 2*len(g.Edges))
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, d := range g.Neighbors(v) {
			edges = append(edges, Edge{uint32(v), d})
			edges = append(edges, Edge{d, uint32(v)})
		}
	}
	return FromEdges(g.Name+"-sym", n, edges, true)
}

// MaxDegreeVertex returns the vertex with the highest out-degree (ties
// broken toward the lowest id) — a deterministic, well-connected source
// for traversal kernels.
func (g *Graph) MaxDegreeVertex() int {
	best, bestDeg := 0, -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}
