package apps

import (
	"fmt"
	"sync/atomic"

	"atmem"
	"atmem/graph"
)

// DOBFS is a direction-optimizing breadth-first search (Beamer et al.):
// rounds with small frontiers expand top-down (push) like BFS; once the
// frontier grows past a threshold fraction of the graph, the traversal
// switches bottom-up (pull) — every undiscovered vertex scans its
// in-neighbours for a parent and stops at the first hit — then switches
// back when the frontier shrinks. This is the BFS formulation
// throughput-oriented frameworks actually ship, and it stresses both CSR
// directions, so ATMem sees a richer mix of hot regions than plain push
// BFS.
//
// One RunIteration is one complete traversal from the fixed root.
type DOBFS struct {
	// Root overrides the traversal source; 0 selects the
	// max-out-degree hub.
	Root int
	// SwitchFraction is the frontier-size fraction of vertices above
	// which rounds run bottom-up; 0 means 0.05.
	SwitchFraction float64

	g        *graph.Graph
	out      csrData // push direction
	in       csrData // pull direction
	lvl      *atmem.Array[int32]
	frontier *atmem.Array[uint32]
	next     *atmem.Array[uint32]
	root     int

	// PushRounds and PullRounds count the direction decisions of the
	// last RunIteration (exposed for tests and reports).
	PushRounds int
	PullRounds int
}

// Name implements Kernel.
func (b *DOBFS) Name() string { return "dobfs" }

// Setup implements Kernel.
func (b *DOBFS) Setup(rt *atmem.Runtime, dataset string) error {
	g, err := graph.Load(dataset)
	if err != nil {
		return err
	}
	in, err := graph.LoadReverse(dataset)
	if err != nil {
		return err
	}
	b.g = g
	if b.out, err = registerCSR(rt, g, "dobfs.out", false); err != nil {
		return err
	}
	if b.in, err = registerCSR(rt, in, "dobfs.in", false); err != nil {
		return err
	}
	n := g.NumVertices()
	if b.lvl, err = atmem.NewArray[int32](rt, "dobfs.level", n); err != nil {
		return err
	}
	if b.frontier, err = atmem.NewArray[uint32](rt, "dobfs.frontier", n); err != nil {
		return err
	}
	if b.next, err = atmem.NewArray[uint32](rt, "dobfs.next", n); err != nil {
		return err
	}
	b.root = b.Root
	if b.root == 0 {
		b.root = g.MaxDegreeVertex()
	}
	if b.SwitchFraction == 0 {
		b.SwitchFraction = 0.05
	}
	return nil
}

// RunIteration implements Kernel.
func (b *DOBFS) RunIteration(rt *atmem.Runtime) IterationResult {
	var res IterationResult
	n := b.g.NumVertices()
	lvl := b.lvl.Raw()
	for i := range lvl {
		lvl[i] = -1
	}
	lvl[b.root] = 0
	cur := b.frontier.Raw()[:1]
	cur[0] = uint32(b.root)
	b.PushRounds, b.PullRounds = 0, 0

	threads := rt.Threads()
	bufs := make([][]uint32, threads)
	seen := make([]uint64, n/64+1)
	switchLen := int(b.SwitchFraction * float64(n))
	for depth := int32(0); len(cur) > 0; depth++ {
		d := depth
		if len(cur) <= switchLen {
			b.PushRounds++
			frontLen := len(cur)
			res.add(rt.RunPhase(fmt.Sprintf("dobfs.push%d", d), func(c *atmem.Ctx) {
				lo, hi := c.Range(frontLen)
				buf := bufs[c.ID][:0]
				nextBase := c.ID * (n / threads)
				work := 0.0
				front := b.frontier.LoadSeq(c, lo, hi)
				for _, fv := range front {
					v := int(fv)
					elo, ehi := b.out.neighborSpan(c, v)
					dsts := b.out.edges.LoadSeq(c, int(elo), int(ehi))
					work += float64(len(dsts))
					seg := 0
					for k, dst := range dsts {
						if atomic.LoadInt32(&lvl[dst]) != -1 {
							continue
						}
						if atomic.CompareAndSwapInt32(&lvl[dst], -1, d+1) {
							b.lvl.SimLoadGather(c, dsts[seg:k+1])
							seg = k + 1
							b.lvl.SimStore(c, int(dst))
							b.next.SimStore(c, minInt(nextBase+len(buf), n-1))
							buf = append(buf, dst)
						}
					}
					b.lvl.SimLoadGather(c, dsts[seg:])
				}
				bufs[c.ID] = buf
				c.Compute(work)
			}))
		} else {
			b.PullRounds++
			// Bottom-up: every undiscovered vertex pulls from its
			// in-neighbours. Each vertex is written by exactly one
			// thread, but neighbours' levels are read across threads, so
			// the raw array is accessed atomically; the decision is
			// timing-independent because levels written this round are
			// d+1 and the reads compare against d.
			// The edge scan stays element-at-a-time: it exits at the
			// first discovered parent, and a bulk load would charge
			// edges the real traversal never touches.
			res.add(rt.RunPhase(fmt.Sprintf("dobfs.pull%d", d), func(c *atmem.Ctx) {
				lo, hi := b.in.span(c)
				buf := bufs[c.ID][:0]
				nextBase := c.ID * (n / threads)
				work := 0.0
				for v := lo; v < hi; v++ {
					b.lvl.SimLoad(c, v)
					if atomic.LoadInt32(&lvl[v]) != -1 {
						continue
					}
					elo, ehi := b.in.neighborSpan(c, v)
					for i := elo; i < ehi; i++ {
						u := b.in.edges.Load(c, int(i))
						work++
						b.lvl.SimLoad(c, int(u))
						if atomic.LoadInt32(&lvl[u]) == d {
							atomic.StoreInt32(&lvl[v], d+1)
							b.lvl.SimStore(c, v)
							b.next.SimStore(c, minInt(nextBase+len(buf), n-1))
							buf = append(buf, uint32(v))
							break
						}
					}
				}
				bufs[c.ID] = buf
				c.Compute(work)
			}))
		}
		merged := b.next.Raw()[:0]
		for _, buf := range bufs {
			merged = append(merged, buf...)
		}
		merged = sortUnique(merged, seen)
		copy(b.frontier.Raw(), merged)
		cur = b.frontier.Raw()[:len(merged)]
	}
	return res
}

// Levels returns the computed level array (after RunIteration).
func (b *DOBFS) Levels() []int32 { return b.lvl.Raw() }

// Validate implements Kernel against the serial reference BFS.
func (b *DOBFS) Validate() error {
	want := referenceBFS(b.g, b.root)
	got := b.lvl.Raw()
	for v := range want {
		if want[v] != got[v] {
			return fmt.Errorf("dobfs: level[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}
