package memsim

import "atmem/internal/cache"

// TLB models one translation lookaside buffer as a 4-way set-associative
// array of page-number tags with LRU replacement per set: a cache.LRU4
// keyed by virtual page number, exact because translations are only
// ever installed at MRU and otherwise only shot down or flushed. Each
// simulated thread owns two TLBs, one for 4 KiB and one for 2 MiB
// mappings, mirroring real split dTLBs. The reach difference between the
// two is what turns the mbind engine's huge-page splintering into the
// post-migration TLB-miss gap of the paper's Table 4.
type TLB struct {
	sets    *cache.LRU4
	shift   uint // page shift: 12 for 4 KiB, 21 for 2 MiB
	misses  uint64
	lookups uint64
}

// NewTLB builds a TLB with the given number of entries (rounded down to a
// power of two, minimum one set) covering pages of size 1<<pageShift.
func NewTLB(entries int, pageShift uint) *TLB {
	return &TLB{sets: cache.NewLRU4(entries), shift: pageShift}
}

// Lookup translates addr, returning true on a TLB hit. On a miss the
// translation is installed (the page walk is charged by the caller).
func (t *TLB) Lookup(addr uint64) bool {
	t.lookups++
	if t.sets.Access(addr >> t.shift) {
		return true
	}
	t.misses++
	return false
}

// InvalidateRange drops translations for pages intersecting
// [base, base+size): a TLB shootdown over that range.
func (t *TLB) InvalidateRange(base, size uint64) {
	if size == 0 {
		return
	}
	t.sets.InvalidateRange(base>>t.shift, (base+size-1)>>t.shift+1)
}

// Flush empties the TLB without resetting counters.
func (t *TLB) Flush() { t.sets.Flush() }

// Misses returns the miss count since construction.
func (t *TLB) Misses() uint64 { return t.misses }

// Lookups returns the lookup count since construction.
func (t *TLB) Lookups() uint64 { return t.lookups }
