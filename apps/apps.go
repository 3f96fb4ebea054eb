// Package apps implements the paper's evaluation workloads — BFS, SSSP,
// PageRank (PR), betweenness centrality (BC), and connected components
// (CC), plus the SpMV generalization of §9 — against the ATMem runtime.
//
// Every kernel issues its memory accesses through atmem typed arrays, so
// the simulated heterogeneous memory system accounts every load and
// store; results are computed on real Go memory and validated against
// plain reference implementations.
//
// Every kernel's results match its reference (PR's with two or more
// workers up to floating-point association order), but not every
// kernel's simulated statistics are deterministic. The frontier kernels
// BFS, direction-optimizing BFS, SSSP, CC and BC push: several simulated
// threads may race to claim one vertex with a compare-and-swap, and the
// claim's simulated stores are charged to whichever thread wins. Since
// every thread has its own L1, TLBs and LLC slice, their statistics
// depend on the host scheduler (run them on one simulated thread for
// bit-identical statistics). PageRank pushes too, through atomic
// floating-point adds when two or more workers share a phase (a
// one-worker phase adds with plain stores, so its ranks equal the
// reference bit for bit), but every thread charges its own accesses, so
// PR's and SpMV's statistics are bit-deterministic. CSR conventions: BFS,
// SSSP and PR push along the out-edge CSR; direction-optimizing BFS and
// BC keep both the out-edge CSR and its transpose (BC gathers sigma from
// predecessors on the transpose); CC uses the symmetrized graph; SpMV
// uses the out-edge CSR directly as a sparse matrix.
package apps

import (
	"fmt"
	"math/bits"

	"atmem"
	"atmem/graph"
)

// IterationResult is the outcome of one kernel iteration, possibly
// composed of several barrier-separated parallel phases.
type IterationResult struct {
	// Seconds is the total simulated time of the iteration (phases
	// run back-to-back, separated by barriers).
	Seconds float64
	// Phases holds the constituent phase results.
	Phases []atmem.PhaseResult
}

func (r *IterationResult) add(p atmem.PhaseResult) {
	r.Seconds += p.Seconds()
	r.Phases = append(r.Phases, p)
}

// TLBMisses sums TLB misses over the iteration's phases.
func (r *IterationResult) TLBMisses() uint64 {
	var n uint64
	for _, p := range r.Phases {
		n += p.Stats.TLBMisses
	}
	return n
}

// LLCMisses sums LLC misses over the iteration's phases.
func (r *IterationResult) LLCMisses() uint64 {
	var n uint64
	for _, p := range r.Phases {
		n += p.Stats.LLCMisses
	}
	return n
}

// Kernel is one benchmark application.
type Kernel interface {
	// Name returns the paper's short name: "bfs", "sssp", "pr", "bc",
	// "cc", or "spmv".
	Name() string
	// Setup allocates and registers the kernel's data with the
	// runtime and initializes it (initialization is not simulated, as
	// the paper measures kernel iterations only).
	Setup(rt *atmem.Runtime, dataset string) error
	// RunIteration executes one full iteration (one traversal for
	// BFS/SSSP/BC, one sweep to convergence step for PR/CC/SpMV —
	// see each kernel) through the simulated memory system.
	RunIteration(rt *atmem.Runtime) IterationResult
	// Validate checks the computed result against a reference
	// implementation. It must be called after at least one iteration.
	Validate() error
}

// Names lists the five paper workloads in the paper's order.
func Names() []string { return []string{"bfs", "sssp", "pr", "bc", "cc"} }

// New constructs a kernel by name.
func New(name string) (Kernel, error) {
	switch name {
	case "bfs":
		return &BFS{}, nil
	case "dobfs":
		return &DOBFS{}, nil
	case "sssp":
		return &SSSP{}, nil
	case "pr":
		// One PR "iteration" is a full double-buffer period (two power
		// iterations): the rank buffers swap roles every power
		// iteration, so a shorter window would hide one buffer from
		// the profiler and alternate the measured iteration's cost.
		return &PageRank{Iterations: 2}, nil
	case "bc":
		return &BC{}, nil
	case "cc":
		return &CC{}, nil
	case "spmv":
		return &SpMV{}, nil
	}
	return nil, fmt.Errorf("apps: unknown kernel %q", name)
}

// csrData bundles the registered arrays of one CSR direction.
type csrData struct {
	offsets *atmem.Array[uint64]
	edges   *atmem.Array[uint32]
	weights *atmem.Array[float32] // nil unless registered
	// bounds partitions the vertex range so each thread owns roughly
	// equal edge work (real SIMD graph frameworks balance by edges,
	// not vertices — hub-heavy low-id partitions would otherwise
	// dominate the critical path).
	bounds []int
}

// balancedBounds computes threads+1 vertex boundaries with roughly equal
// edge counts per partition.
func balancedBounds(offsets []uint64, threads int) []int {
	n := len(offsets) - 1
	total := offsets[n]
	bounds := make([]int, threads+1)
	v := 0
	for t := 1; t < threads; t++ {
		target := total * uint64(t) / uint64(threads)
		for v < n && offsets[v] < target {
			v++
		}
		bounds[t] = v
	}
	bounds[threads] = n
	return bounds
}

// span returns this thread's vertex range.
func (d *csrData) span(c *atmem.Ctx) (lo, hi int) {
	return d.bounds[c.ID], d.bounds[c.ID+1]
}

// registerCSR registers a CSR graph's arrays under a name prefix and
// copies the graph data in (unsimulated initialization).
func registerCSR(rt *atmem.Runtime, g *graph.Graph, prefix string, withWeights bool) (csrData, error) {
	var d csrData
	var err error
	if d.offsets, err = atmem.NewArray[uint64](rt, prefix+".offsets", g.NumVertices()+1); err != nil {
		return d, err
	}
	copy(d.offsets.Raw(), g.Offsets)
	if d.edges, err = atmem.NewArray[uint32](rt, prefix+".edges", g.NumEdges()); err != nil {
		return d, err
	}
	copy(d.edges.Raw(), g.Edges)
	if withWeights {
		if g.Weights == nil {
			return d, fmt.Errorf("apps: graph %q has no weights", g.Name)
		}
		if d.weights, err = atmem.NewArray[float32](rt, prefix+".weights", g.NumEdges()); err != nil {
			return d, err
		}
		copy(d.weights.Raw(), g.Weights)
	}
	d.bounds = balancedBounds(g.Offsets, rt.Threads())
	return d, nil
}

// neighborSpan loads the CSR offsets of vertex v through the simulated
// memory system and returns the edge index range. The two adjacent
// offsets are charged as one bulk sequential pair.
func (d *csrData) neighborSpan(c *atmem.Ctx, v int) (lo, hi uint64) {
	off := d.offsets.LoadSeq(c, v, v+2)
	return off[0], off[1]
}

// sortUnique replaces a merged frontier with its distinct vertices in
// ascending order, the deterministic processing order of the next round.
// seen is a scratch bitmap with a bit for every vertex, clear on entry
// and left clear. Setting bits and reading back the words between the
// lowest and highest one set costs O(len(xs) + span/64) with no
// comparisons, where a comparison sort of a large frontier costs several
// percent of a traversal.
func sortUnique(xs []uint32, seen []uint64) []uint32 {
	lo, hi := len(seen), 0
	for _, x := range xs {
		w := int(x >> 6)
		seen[w] |= 1 << (x & 63)
		lo, hi = min(lo, w), max(hi, w+1)
	}
	out := xs[:0]
	for w := lo; w < hi; w++ {
		for word := seen[w]; word != 0; word &= word - 1 {
			out = append(out, uint32(w<<6+bits.TrailingZeros64(word)))
		}
		seen[w] = 0
	}
	return out
}
