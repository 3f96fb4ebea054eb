package apps

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"atmem"
	"atmem/graph"
)

// PageRank is a push (scatter) power iteration, the formulation
// throughput-oriented SIMD graph frameworks use: each vertex scatters its
// damped contribution into its out-neighbours' next-rank slots. The
// next-rank array takes one random read-modify-write per edge — skewed
// toward hub vertices — which is both the access pattern PEBS demand-miss
// sampling sees and the pattern that suffers the most from Optane's
// device write granularity.
//
// With two or more workers the adds are atomic floating-point adds, exact
// up to association order, which varies with thread interleaving;
// Validate therefore allows a small relative tolerance against the serial
// reference. A one-worker phase adds with plain stores, in the
// reference's order, so its ranks equal the reference bit for bit.
//
// One RunIteration performs Iterations power iterations (default 1, so
// "iteration" matches the paper's per-iteration measurement).
type PageRank struct {
	// Iterations is the number of power iterations per RunIteration.
	Iterations int
	// Damping is the damping factor d; 0 means 0.85.
	Damping float64

	g       *graph.Graph
	csr     csrData // out-edges
	rank    *atmem.Array[float64]
	nextRnk *atmem.Array[float64]

	completedIterations int
}

// Name implements Kernel.
func (p *PageRank) Name() string { return "pr" }

// Setup implements Kernel.
func (p *PageRank) Setup(rt *atmem.Runtime, dataset string) error {
	g, err := graph.Load(dataset)
	if err != nil {
		return err
	}
	p.g = g
	if p.csr, err = registerCSR(rt, g, "pr", false); err != nil {
		return err
	}
	n := g.NumVertices()
	if p.rank, err = atmem.NewArray[float64](rt, "pr.rank", n); err != nil {
		return err
	}
	if p.nextRnk, err = atmem.NewArray[float64](rt, "pr.next", n); err != nil {
		return err
	}
	p.rank.Fill(1 / float64(n))
	if p.Iterations <= 0 {
		p.Iterations = 1
	}
	if p.Damping == 0 {
		p.Damping = 0.85
	}
	return nil
}

// float64Bits aliases a float64 slice as uint64 bit patterns for atomic
// CAS access.
func float64Bits(xs []float64) []uint64 {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&xs[0])), len(xs))
}

// atomicAddFloat64 adds v to the float stored in *bits.
func atomicAddFloat64(bits *uint64, v float64) {
	for {
		cur := atomic.LoadUint64(bits)
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if atomic.CompareAndSwapUint64(bits, cur, next) {
			return
		}
	}
}

// RunIteration implements Kernel.
func (p *PageRank) RunIteration(rt *atmem.Runtime) IterationResult {
	var res IterationResult
	n := p.g.NumVertices()
	base := (1 - p.Damping) / float64(n)
	for it := 0; it < p.Iterations; it++ {
		next := p.nextRnk.Raw()
		nextBits := float64Bits(next)
		// Phase 1: reset next ranks to the teleport base (streaming).
		res.add(rt.RunPhase("pr.reset", func(c *atmem.Ctx) {
			lo, hi := c.Range(n)
			p.nextRnk.FillSeq(c, lo, hi, base)
			c.Compute(float64(hi - lo))
		}))
		// Phase 2: scatter contributions along out-edges (sequential
		// edge scan, random accumulates into next ranks). Only workers
		// racing on next need the locked CAS; a one-worker phase is
		// ordered against its neighbours by RunPhase's WaitGroup, and a
		// CAS per edge costs it about a sixth of its host time.
		res.add(rt.RunPhase("pr.scatter", func(c *atmem.Ctx) {
			lo, hi := p.csr.span(c)
			shared := c.NumThreads > 1
			work := 0.0
			for v := lo; v < hi; v++ {
				elo, ehi := p.csr.neighborSpan(c, v)
				deg := ehi - elo
				if deg == 0 {
					continue
				}
				contrib := p.Damping * p.rank.Load(c, v) / float64(deg)
				dsts := p.csr.edges.LoadSeq(c, int(elo), int(ehi))
				p.nextRnk.SimUpdateGather(c, dsts)
				if shared {
					for _, dst := range dsts {
						atomicAddFloat64(&nextBits[dst], contrib)
					}
				} else {
					for _, dst := range dsts {
						next[dst] += contrib
					}
				}
				work += 2 * float64(len(dsts))
			}
			c.Compute(work)
		}))
		p.rank, p.nextRnk = p.nextRnk, p.rank
		p.completedIterations++
	}
	return res
}

// Ranks returns the rank vector (after RunIteration).
func (p *PageRank) Ranks() []float64 { return p.rank.Raw() }

// Validate implements Kernel: ranks after k parallel iterations must match
// k serial reference iterations up to atomic-add association order.
func (p *PageRank) Validate() error {
	want := referencePageRank(p.g, p.completedIterations, p.Damping)
	got := p.rank.Raw()
	for v := range want {
		if math.Abs(want[v]-got[v]) > 1e-12+1e-6*math.Abs(want[v]) {
			return fmt.Errorf("pr: rank[%d] = %g, want %g", v, got[v], want[v])
		}
	}
	return nil
}

// referencePageRank runs iters serial push iterations.
func referencePageRank(g *graph.Graph, iters int, damping float64) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			deg := g.Degree(v)
			if deg == 0 {
				continue
			}
			contrib := damping * rank[v] / float64(deg)
			for _, dst := range g.Neighbors(v) {
				next[dst] += contrib
			}
		}
		rank, next = next, rank
	}
	return rank
}
