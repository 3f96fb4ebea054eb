// Package cache implements the set-associative models of the simulated
// access path: Cache, the stamp-based last-level cache, and LRU4, the
// stamp-free 4-way sets of the per-thread L1 filter and TLBs.
//
// The simulated LLC serves two purposes in the ATMem reproduction. First,
// it decides which accesses reach memory and therefore pay tier latency and
// consume tier bandwidth — graph kernels are dominated by LLC misses
// (paper §2.2), and the relative miss volume between the dense and sparse
// regions of a data structure is what the analyzer ranks. Second, the miss
// stream is what the PEBS-style profiler samples: the hardware event the
// paper programs is "missed reads from the last-level cache" (Eq. 1).
//
// Each simulated thread models its view of the shared LLC with a private
// replica of the full capacity (memsim.NewAccessor), which keeps the
// simulator lock-free and deterministic under parallel execution.
package cache

// Cache is a set-associative cache with LRU replacement inside each set.
// It tracks line presence only — data contents live in the Go slices that
// back simulated objects.
type Cache struct {
	setMask uint64
	ways    int
	// tags holds sets*ways entries: tagOf(line) (0 means empty), with
	// the entry's dirty flag in bit 63.
	tags     []uint64
	stamps   []uint64 // LRU clock per entry
	clock    uint64
	hits     uint64
	misses   uint64
	capacity int
	lineSize int

	// OnEvict, when set, observes every replaced line (called before
	// the new line is installed). Writeback modelling hangs off the
	// dirty flag.
	OnEvict func(line uint64, dirty bool)
}

// dirtyBit flags a modified entry in its tag word.
const dirtyBit = uint64(1) << 63

// tagOf is the tag of a line: line+1, reserving 0 for "empty", kept to
// the 63 bits below the dirty flag. Simulated lines are byte addresses
// shifted right by at least 6, so no two of them share a tag.
func tagOf(line uint64) uint64 { return (line + 1) &^ dirtyBit }

// New builds a cache of sizeBytes capacity with the given line size and
// associativity. sizeBytes is rounded down to a power-of-two set count; the
// cache always has at least one set. New panics on non-positive or
// non-power-of-two lineBytes, or non-positive ways.
func New(sizeBytes, lineBytes, ways int) *Cache {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("cache: line size must be a positive power of two")
	}
	if ways <= 0 {
		panic("cache: ways must be positive")
	}
	sets := sizeBytes / (lineBytes * ways)
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two so the index is a mask.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return &Cache{
		setMask:  uint64(sets - 1),
		ways:     ways,
		tags:     make([]uint64, sets*ways),
		stamps:   make([]uint64, sets*ways),
		capacity: sets * ways * lineBytes,
		lineSize: lineBytes,
	}
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Capacity returns the effective capacity in bytes after rounding.
func (c *Cache) Capacity() int { return c.capacity }

// Access looks up the given line number (address / line size) and returns
// whether it hit. On a miss the line is installed, evicting the LRU way of
// its set.
func (c *Cache) Access(line uint64) bool {
	return c.AccessHint(line, false)
}

// AccessHint is Access with a streaming hint: a streaming (sequential)
// miss is installed at the LRU position instead of MRU, so one-shot
// streams flow through without evicting the reused working set — the
// behaviour of modern stream-resistant insertion policies (DRRIP et al.)
// that large shared LLCs implement. A later hit on the line still
// promotes it to MRU.
func (c *Cache) AccessHint(line uint64, streaming bool) bool {
	if c.Hit(line, false) {
		return true
	}
	c.Fill(line, streaming, false)
	return false
}

// AccessDirty is AccessHint fused with MarkDirty for the store path: the
// line is looked up (or installed) exactly as AccessHint would, and its
// entry is flagged dirty in the same walk — on a hit the hit entry, on a
// miss the just-installed victim — saving the separate MarkDirty
// traversal of the set. State, counters, and eviction callbacks are
// bit-identical to AccessHint(line, streaming) followed by
// MarkDirty(line).
func (c *Cache) AccessDirty(line uint64, streaming bool) bool {
	if c.Hit(line, true) {
		return true
	}
	c.Fill(line, streaming, true)
	return false
}

// Hit is the first half of an access: it advances the LRU clock and looks
// line up, and on a hit makes the entry the most recent (flagging it
// dirty if dirty) and returns true. After a miss the caller must Fill the
// line before any other operation on the cache. Splitting the access lets
// a caller work out the streaming hint, which only a miss uses, after
// the lookup.
func (c *Cache) Hit(line uint64, dirty bool) bool {
	tag := tagOf(line)
	set := int(line&c.setMask) * c.ways
	c.clock++
	tags := c.tags[set : set+c.ways]
	for i, t := range tags {
		if t&^dirtyBit == tag {
			if dirty {
				t |= dirtyBit
			}
			tags[i] = t
			c.stamps[set+i] = c.clock
			c.hits++
			return true
		}
	}
	return false
}

// Fill is the second half of an access Hit missed: it installs line over
// the first way with the oldest stamp, reporting the evicted line to
// OnEvict, and flags it dirty if dirty. A streaming line is installed as
// the set's next eviction candidate, strictly older than every live entry
// (saturating at zero); any other line is the most recent. The victim
// scan reads the stamps only here, because a kernel's L1 misses mostly
// hit the LLC.
func (c *Cache) Fill(line uint64, streaming, dirty bool) {
	set := int(line&c.setMask) * c.ways
	tags := c.tags[set : set+c.ways]
	stamps := c.stamps[set : set+c.ways]
	victim, oldest := 0, stamps[0]
	for i, st := range stamps {
		if st < oldest {
			victim, oldest = i, st
		}
	}
	if old := tags[victim]; old != 0 && c.OnEvict != nil {
		c.OnEvict(old&^dirtyBit-1, old&dirtyBit != 0)
	}
	tag := tagOf(line)
	if dirty {
		tag |= dirtyBit
	}
	tags[victim] = tag
	if streaming {
		if oldest > 0 {
			oldest--
		}
		stamps[victim] = oldest
	} else {
		stamps[victim] = c.clock
	}
	c.misses++
}

// MarkDirty flags the line as modified if present, so its eventual
// eviction is reported as a writeback. Returns whether the line was
// found.
func (c *Cache) MarkDirty(line uint64) bool {
	tag := tagOf(line)
	set := int(line&c.setMask) * c.ways
	for i := set; i < set+c.ways; i++ {
		if c.tags[i]&^dirtyBit == tag {
			c.tags[i] |= dirtyBit
			return true
		}
	}
	return false
}

// Contains reports whether the line is currently cached, without touching
// LRU state or hit/miss counters.
func (c *Cache) Contains(line uint64) bool {
	tag := tagOf(line)
	set := int(line&c.setMask) * c.ways
	for i := set; i < set+c.ways; i++ {
		if c.tags[i]&^dirtyBit == tag {
			return true
		}
	}
	return false
}

// InvalidateRange drops every cached line in [loLine, hiLine). Migration
// engines use this to model the cache effects of moving data. Narrow
// ranges (fewer lines than the cache has sets) probe each line's set
// directly; wide ranges scan the tag array once — whichever touches
// fewer entries.
func (c *Cache) InvalidateRange(loLine, hiLine uint64) {
	if hiLine <= loLine {
		return
	}
	if sets := uint64(len(c.tags) / c.ways); hiLine-loLine < sets {
		for line := loLine; line < hiLine; line++ {
			tag := tagOf(line)
			set := int(line&c.setMask) * c.ways
			for i := set; i < set+c.ways; i++ {
				if c.tags[i]&^dirtyBit == tag {
					c.tags[i] = 0
					c.stamps[i] = 0
					break
				}
			}
		}
		return
	}
	for i, tag := range c.tags {
		if tag == 0 {
			continue
		}
		line := tag&^dirtyBit - 1
		if line >= loLine && line < hiLine {
			c.tags[i] = 0
			c.stamps[i] = 0
		}
	}
}

// Flush empties the cache and resets counters.
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.stamps)
	c.clock = 0
	c.hits = 0
	c.misses = 0
}

// Hits returns the number of hits since the last Flush.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses since the last Flush.
func (c *Cache) Misses() uint64 { return c.misses }
