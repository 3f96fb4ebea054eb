package core

import "sort"

// Delta is the difference between a fresh placement plan and what the
// fast tier holds now: what must actually move. Advance reads the fast
// tier from the page table, so the delta sees every fast byte, whether
// a migration or a fast allocation put it there, and a skipped or
// rolled-back region simply shows up again next epoch.
type Delta struct {
	// Promotions are the planned ranges not yet wholly on the fast
	// tier, split at chunk boundaries and re-merged where adjacent, in
	// address order; migrating them to the fast tier realizes the plan.
	Promotions []Range
	// Demotions are the unplanned chunks holding fast bytes whose cold
	// counter reached the hysteresis window, merged where adjacent, in
	// address order; they return to the slow tier, reclaiming budget.
	Demotions []Range
	// PromoteBytes counts the planned bytes still off the fast tier;
	// DemoteBytes counts the fast bytes the demotions free.
	PromoteBytes uint64
	DemoteBytes  uint64
}

// Empty reports whether the delta schedules no movement at all — the
// steady state of a converged epoch loop.
func (d *Delta) Empty() bool {
	return len(d.Promotions) == 0 && len(d.Demotions) == 0
}

// Candidate is one unplanned chunk holding fast bytes whose hysteresis
// window has not yet expired — the pool pressure demotion draws from,
// coldest first.
type Candidate struct {
	// Range is the chunk's byte range (clipped to the object).
	Range Range
	// FastBytes is how much of Range is on the fast tier: what
	// demoting the chunk frees.
	FastBytes uint64
	// Priority is the chunk's current-epoch priority (misses/byte); the
	// coldest candidate has the lowest.
	Priority float64
}

// Advance diffs one epoch's plan against the fast tier and folds the
// epoch into the per-chunk cold counters. fast(base, size) reports how
// many bytes of [base, base+size) are on the fast tier; the runtime
// backs it with the simulator's page table. Advance returns the delta
// plus the pressure-demotion candidates:
//
//   - each planned range, cut at chunk boundaries, becomes a promotion
//     unless it is already wholly fast, and PromoteBytes counts only
//     its missing bytes; a chunk the plan touches resets its counter;
//   - an unplanned chunk holding fast bytes ages one epoch (any other
//     resets); at or past demoteAfter it becomes a demotion, younger
//     it becomes a candidate, ordered coldest-first (ties by address);
//   - adjacent pieces merge into maximal contiguous ranges.
//
// Advance must be called exactly once per migrating epoch; breaker-
// skipped epochs do not call it, freezing the counters (a frozen epoch
// carries no placement signal). The counters live on the DataObject, so
// a freed object, once unregistered, takes them with it.
func Advance(plan *Plan, demoteAfter int, fast func(base, size uint64) uint64) (Delta, []Candidate) {
	var d Delta
	var cands []Candidate
	for i := range plan.Objects {
		op := &plan.Objects[i]
		o := op.Object
		ranges := op.Ranges
		var promo, demo rangeRun
		for j := 0; j < o.NumChunks; j++ {
			lo, hi := o.ChunkRange(j)
			planned := false
			for ; len(ranges) > 0 && ranges[0].Base < hi; ranges = ranges[1:] {
				pLo, pHi := max(lo, ranges[0].Base), min(hi, ranges[0].End())
				if pLo < pHi {
					planned = true
					if f := fast(pLo, pHi-pLo); f < pHi-pLo {
						promo.add(&d.Promotions, pLo, pHi)
						d.PromoteBytes += pHi - pLo - f
					}
				}
				if ranges[0].End() > hi {
					break // the range continues into the next chunk
				}
			}
			var f uint64 // the chunk's fast bytes outside the plan
			if !planned {
				f = fast(lo, hi-lo)
			}
			if f == 0 {
				o.cold[j] = 0
				continue
			}
			o.cold[j]++
			if o.cold[j] >= demoteAfter {
				demo.add(&d.Demotions, lo, hi)
				d.DemoteBytes += f
				continue
			}
			cands = append(cands, Candidate{
				Range:     Range{Base: lo, Size: hi - lo},
				FastBytes: f,
				Priority:  op.Local.PR[j],
			})
		}
		promo.flush(&d.Promotions)
		demo.flush(&d.Demotions)
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].Priority != cands[b].Priority {
			return cands[a].Priority < cands[b].Priority
		}
		return cands[a].Range.Base < cands[b].Range.Base
	})
	return d, cands
}

// rangeRun accumulates adjacent pieces into one contiguous Range.
type rangeRun struct {
	open bool
	base uint64
	end  uint64
}

// add appends [lo, hi) to the run, first flushing the run to out when
// the piece does not continue it.
func (rr *rangeRun) add(out *[]Range, lo, hi uint64) {
	if rr.open && lo == rr.end {
		rr.end = hi
		return
	}
	rr.flush(out)
	*rr = rangeRun{open: true, base: lo, end: hi}
}

func (rr *rangeRun) flush(out *[]Range) {
	if rr.open {
		*out = append(*out, Range{Base: rr.base, Size: rr.end - rr.base})
		rr.open = false
	}
}
