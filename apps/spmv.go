package apps

import (
	"fmt"
	"math"

	"atmem"
	"atmem/graph"
)

// SpMV is the sparse matrix-vector multiplication generalization of §9:
// the graph's out-CSR is taken as a sparse matrix A (rows = vertices,
// column indices = neighbour ids, values = edge weights) and one
// RunIteration computes y = A·x, then feeds the normalized y back as the
// next x (a power-method step), so repeated iterations keep exercising
// the same skewed column-access pattern the paper describes for sparse
// matrix computations.
type SpMV struct {
	g   *graph.Graph
	mat csrData
	x   *atmem.Array[float64]
	y   *atmem.Array[float64]

	iterations int
	threads    int
}

// Name implements Kernel.
func (s *SpMV) Name() string { return "spmv" }

// Setup implements Kernel.
func (s *SpMV) Setup(rt *atmem.Runtime, dataset string) error {
	g, err := graph.Load(dataset)
	if err != nil {
		return err
	}
	s.g = g
	if s.mat, err = registerCSR(rt, g, "spmv", true); err != nil {
		return err
	}
	n := g.NumVertices()
	if s.x, err = atmem.NewArray[float64](rt, "spmv.x", n); err != nil {
		return err
	}
	if s.y, err = atmem.NewArray[float64](rt, "spmv.y", n); err != nil {
		return err
	}
	s.x.Fill(1)
	return nil
}

// RunIteration implements Kernel: y = A·x followed by x = y / ‖y‖₁·n.
func (s *SpMV) RunIteration(rt *atmem.Runtime) IterationResult {
	var res IterationResult
	n := s.g.NumVertices()
	res.add(rt.RunPhase("spmv.multiply", func(c *atmem.Ctx) {
		lo, hi := s.mat.span(c)
		x := s.x.Raw()
		work := 0.0
		for row := lo; row < hi; row++ {
			elo, ehi := s.mat.neighborSpan(c, row)
			cols := s.mat.edges.LoadSeq(c, int(elo), int(ehi))
			vals := s.mat.weights.LoadSeq(c, int(elo), int(ehi))
			s.x.SimLoadGather(c, cols)
			sum := 0.0
			for i, col := range cols {
				sum += float64(vals[i]) * x[col]
			}
			work += 2 * float64(len(cols))
			s.y.Store(c, row, sum)
		}
		c.Compute(work)
	}))
	// Normalize y into x (streaming) so the iteration can repeat.
	norms := make([]float64, rt.Threads())
	res.add(rt.RunPhase("spmv.norm", func(c *atmem.Ctx) {
		lo, hi := c.Range(n)
		norms[c.ID] = s.y.ReduceSeq(c, lo, hi, 0,
			func(acc float64, v float64) float64 { return acc + math.Abs(v) })
		c.Compute(float64(hi - lo))
	}))
	s.threads = rt.Threads()
	var norm float64
	for _, v := range norms {
		norm += v
	}
	if norm == 0 {
		norm = 1
	}
	scale := float64(n) / norm
	res.add(rt.RunPhase("spmv.scale", func(c *atmem.Ctx) {
		lo, hi := c.Range(n)
		ys := s.y.LoadSeq(c, lo, hi)
		xs := s.x.StoreSeq(c, lo, hi)
		for i, v := range ys {
			xs[i] = v * scale
		}
		c.Compute(float64(hi - lo))
	}))
	s.iterations++
	return res
}

// Result returns the current vector x.
func (s *SpMV) Result() []float64 { return s.x.Raw() }

// Validate implements Kernel against a serial replay of the same number
// of normalized multiply steps (replicating the parallel partitioned
// norm reduction exactly, so the comparison is bit-level deterministic).
func (s *SpMV) Validate() error {
	want := referenceSpMV(s.g, s.iterations, s.threads)
	got := s.x.Raw()
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("spmv: x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	return nil
}

func referenceSpMV(g *graph.Graph, iters, threads int) []float64 {
	n := g.NumVertices()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	if threads <= 0 {
		threads = 1
	}
	per := (n + threads - 1) / threads
	for it := 0; it < iters; it++ {
		for row := 0; row < n; row++ {
			sum := 0.0
			for i := g.Offsets[row]; i < g.Offsets[row+1]; i++ {
				sum += float64(g.Weights[i]) * x[g.Edges[i]]
			}
			y[row] = sum
		}
		// Partitioned norm reduction, matching the parallel kernel.
		var norm float64
		for t := 0; t < threads; t++ {
			lo, hi := t*per, (t+1)*per
			if lo > n {
				lo = n
			}
			if hi > n {
				hi = n
			}
			sum := 0.0
			for i := lo; i < hi; i++ {
				sum += math.Abs(y[i])
			}
			norm += sum
		}
		if norm == 0 {
			norm = 1
		}
		scale := float64(n) / norm
		for i := range x {
			x[i] = y[i] * scale
		}
	}
	return x
}
