package cache

// LRU4 is an array of 4-way sets with exact least-recently-used
// replacement, for the structures that only ever insert at the MRU
// position and are otherwise only invalidated or flushed: the
// accessor's L1 filter (keyed by line) and the TLBs (keyed by virtual
// page number).
//
// Each set keeps its tags in recency order, most recent first, with
// empty ways (tag 0) at the end, so there are no LRU stamps and no
// clock. A lookup finds the way index k of the tag (4 on a miss) with
// conditional moves and writes tag, t0..t(k-1), t(k+1).. back: a hit
// and a miss run the same branch-free sequence, and a miss drops the
// last way, which is empty if any way is, and otherwise the LRU way.
//
// For such a structure LRU4 is observably identical to a 4-way Cache
// driven by Access. There, valid ways carry distinct positive stamps
// and empty ways carry stamp 0, so Cache's victim, the first way with
// the minimum stamp, is either an empty way (and which empty way is
// never observable) or the strict LRU way. Cache's streaming inserts,
// which saturate at stamp 0 and break ties by way index, have no place
// in a pure recency order; the LLC keeps Cache for them.
type LRU4 struct {
	sets []set4
	mask uint64
}

// set4 holds one set's tags (key+1; 0 means empty), most recent first.
type set4 [4]uint64

// NewLRU4 builds an LRU4 of entries/4 sets, rounded down to a power of
// two, with at least one set.
func NewLRU4(entries int) *LRU4 {
	sets := entries / 4
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return &LRU4{sets: make([]set4, sets), mask: uint64(sets - 1)}
}

// Access looks key up and makes it the most recent way of its set,
// installing it on a miss (dropping the set's LRU way). It reports
// whether key was resident.
func (c *LRU4) Access(key uint64) bool {
	tag := key + 1
	s := &c.sets[key&c.mask]
	t0, t1, t2, t3 := s[0], s[1], s[2], s[3]
	k := 4
	if t3 == tag {
		k = 3
	}
	if t2 == tag {
		k = 2
	}
	if t1 == tag {
		k = 1
	}
	if t0 == tag {
		k = 0
	}
	// Ways 0..k-1 shift down one place; ways after k keep theirs.
	n1, n2, n3 := t0, t1, t2
	if k == 0 {
		n1 = t1
	}
	if k < 2 {
		n2 = t2
	}
	if k < 3 {
		n3 = t3
	}
	*s = set4{tag, n1, n2, n3}
	return k < 4
}

// Contains reports whether key is resident, without touching recency.
// key must be below the largest uint64 (whose tag would be 0).
func (c *LRU4) Contains(key uint64) bool {
	tag := key + 1
	s := &c.sets[key&c.mask]
	return s[0] == tag || s[1] == tag || s[2] == tag || s[3] == tag
}

// InvalidateRange drops every resident key in [lo, hi), keeping the
// recency order of the survivors. Narrow ranges (fewer keys than there
// are sets) probe each key's set; wide ranges scan every set once.
func (c *LRU4) InvalidateRange(lo, hi uint64) {
	if hi <= lo {
		return
	}
	if hi-lo < uint64(len(c.sets)) {
		for key := lo; key < hi; key++ {
			s := &c.sets[key&c.mask]
			for i, tag := range s {
				if tag == key+1 {
					copy(s[i:], s[i+1:])
					s[3] = 0
					break
				}
			}
		}
		return
	}
	for i := range c.sets {
		s := &c.sets[i]
		var kept set4
		n := 0
		for _, tag := range s {
			if tag != 0 && (tag-1 < lo || tag-1 >= hi) {
				kept[n] = tag
				n++
			}
		}
		*s = kept
	}
}

// Flush empties every set.
func (c *LRU4) Flush() { clear(c.sets) }
