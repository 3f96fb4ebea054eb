package memsim

import (
	"math/bits"

	"atmem/internal/cache"
)

// TrafficHook observes every line of memory traffic an accessor
// generates — demand misses, prefetched stream fills, and dirty
// writebacks. slowBytes is the device bytes the event WOULD charge on
// the slow tier (its access grain for random traffic, one cache line
// for coalesced stream traffic) regardless of where the line actually
// lives, so a recorded trace stays comparable across placements: the
// fast-tier charge is always one cache line, and the slow-tier charge
// is this value. Unlike MissHook it sees the complete byte stream, not
// just the profiler-visible demand misses: prefetch-covered sequential
// fetches never surface as demand misses but still consume device
// bandwidth. It exists for hindsight measurement (the oracle placement
// policy's trace); the online profiler models real PEBS and must keep
// using MissHook.
type TrafficHook func(addr uint64, slowBytes uint64, write bool)

// MissHook observes every LLC miss an accessor takes (the event stream a
// PEBS-style profiler samples). It returns extra cycles to charge the
// accessing thread — the profiler's interrupt/capture overhead, so that
// profiling cost shows up in simulated time exactly where it would on
// hardware (§7.4).
type MissHook func(addr uint64, write bool) float64

// Accessor is the per-thread memory access path: a private LLC partition,
// split 4 KiB/2 MiB TLBs, a sequential-miss (prefetch) detector, and cycle
// and byte accounting. Kernels call Load/Store for every simulated memory
// access and Compute for ALU work.
//
// Accessors are not safe for concurrent use; each simulated thread owns
// one. The mapping must not change while an accessor runs: a migration
// runs between phases and then invalidates the moved ranges in every
// accessor (InvalidateTLBRange, InvalidateCacheRange).
type Accessor struct {
	sys   *System
	llc   *cache.Cache
	tlb4k *TLB
	tlb2m *TLB

	// l1 is a small 4-way first-level filter; hits cost almost
	// nothing and never reach the LLC model.
	l1 *cache.LRU4

	lineShift uint
	hook      MissHook
	traffic   TrafficHook

	// Same-line fast-path register: after any access to lastLine the
	// line is guaranteed L1-resident, so a repeat access can be answered
	// as an L1 hit without walking any cache structure. lastDirty
	// records whether the LLC copy has already been marked dirty, making
	// the repeated-store MarkDirty walk skippable too. The register is
	// purely an optimization: clearing it (lastValid=false) never
	// changes simulated state, only costs the L1 walk again.
	lastLine  uint64
	lastValid bool
	lastDirty bool

	// lastWb is the writeback-coalescing register: the line number of
	// the most recent dirty eviction, letting consecutive writebacks
	// share one device block. Held in the struct (not an OnEvict
	// closure) so ResetCounters can clear it between phases.
	lastWb uint64

	// cost constants in cycles, precomputed from SystemParams
	l1HitCycles      float64
	llcHitCycles     float64
	pageWalkCycles   float64
	loadMissCycles   [NumTiers]float64 // exposed latency per random miss
	storeMissCycles  [NumTiers]float64
	prefetchedCycles [NumTiers]float64 // exposed latency per sequential miss
	grain            [NumTiers]uint64

	// Cycles is the accumulated simulated time of this thread, in core
	// cycles (compute + exposed memory latency + profiling overhead).
	Cycles float64

	// Traffic counters, indexed by tier. WritebackBytes counts dirty
	// LLC evictions (asynchronous traffic: it consumes bandwidth but
	// exposes no latency).
	ReadBytes      [NumTiers]uint64
	WriteBytes     [NumTiers]uint64
	WritebackBytes [NumTiers]uint64
	Writebacks     uint64

	// Event counters. PrefetchedLines counts sequential line fetches
	// covered by the prefetcher: they consume bandwidth but are not
	// demand LLC misses and are invisible to the profiler.
	Accesses        uint64
	L1Hits          uint64
	LLCHits         uint64
	LLCMisses       uint64
	PrefetchedLines uint64
	TLBMisses       uint64
}

// NewAccessor creates the access path for one simulated thread. Each
// worker models its gang's view of the shared LLC with a private replica
// of the full capacity: graph properties are read-shared by every thread
// on the real machine, so one shared copy serves all gangs — a replica
// per worker approximates that without cross-thread locking (private
// streaming data does not benefit because it is inserted at LRU).
func (s *System) NewAccessor() *Accessor {
	p := &s.P
	a := &Accessor{
		sys:            s,
		llc:            cache.New(p.LLCBytes, p.LineBytes, p.LLCWays),
		tlb4k:          NewTLB(p.TLB4KEntries, smallShift),
		tlb2m:          NewTLB(p.TLB2MEntries, hugeShift),
		l1:             cache.NewLRU4(p.L1Bytes / p.LineBytes),
		lineShift:      uint(bits.TrailingZeros64(uint64(p.LineBytes))),
		l1HitCycles:    p.L1HitCycles,
		llcHitCycles:   p.LLCHitNS * p.ClockGHz,
		pageWalkCycles: p.PageWalkNS * p.ClockGHz,
	}
	for t := Tier(0); t < NumTiers; t++ {
		tp := p.Tiers[t]
		a.loadMissCycles[t] = tp.LoadLatencyNS * p.ClockGHz / p.MLP
		a.storeMissCycles[t] = tp.StoreLatencyNS * p.ClockGHz / p.MLP
		a.prefetchedCycles[t] = a.loadMissCycles[t] * p.PrefetchFactor
		a.grain[t] = uint64(tp.AccessGrainBytes)
	}
	// Dirty LLC evictions write their line back to whichever memory
	// backs it. Random writebacks pay the device grain (the dominant
	// cost of scatter-write kernels on Optane media); consecutive
	// lines coalesce into one device block, as sequentially-written
	// buffers evict in order.
	a.lastWb = ^uint64(0)
	a.llc.OnEvict = func(line uint64, dirty bool) {
		if !dirty {
			return
		}
		t, ok := s.pt.TierOf(line << a.lineShift)
		if !ok {
			return // freed mapping; writeback dropped
		}
		bytes := a.grain[t]
		slowBytes := a.grain[TierSlow]
		if line == a.lastWb+1 {
			bytes = uint64(1) << a.lineShift
			slowBytes = bytes
		}
		a.lastWb = line
		a.WritebackBytes[t] += bytes
		a.Writebacks++
		if a.traffic != nil {
			a.traffic(line<<a.lineShift, slowBytes, true)
		}
	}
	return a
}

// SetMissHook installs (or clears, with nil) the profiler hook.
func (a *Accessor) SetMissHook(h MissHook) { a.hook = h }

// SetTrafficHook installs (or clears, with nil) the full-traffic
// observer. The hook is called on this accessor's goroutine for every
// line fetch and writeback; installing one per accessor with private
// accumulation buffers needs no synchronization.
func (a *Accessor) SetTrafficHook(h TrafficHook) { a.traffic = h }

// Compute charges cycles of ALU/control work to this thread.
func (a *Accessor) Compute(cycles float64) { a.Cycles += cycles }

// Load simulates a read of size bytes at addr.
func (a *Accessor) Load(addr uint64, size uint32) { a.access(addr, size, false) }

// Store simulates a write of size bytes at addr.
func (a *Accessor) Store(addr uint64, size uint32) { a.access(addr, size, true) }

// LoadRange simulates count back-to-back reads of elemSize bytes each,
// starting at addr — exactly equivalent (same cycles, counters, cache,
// TLB, and writeback state) to count individual Load calls at stride
// elemSize, but charged analytically: one pipeline transition per cache
// line plus a constant-time credit for the same-line repeats.
func (a *Accessor) LoadRange(addr uint64, elemSize uint32, count int) {
	a.accessRange(addr, elemSize, count, false)
}

// StoreRange is LoadRange for writes.
func (a *Accessor) StoreRange(addr uint64, elemSize uint32, count int) {
	a.accessRange(addr, elemSize, count, true)
}

// Elem simulates one access of an aligned element of at most a cache
// line (a load, or a store if write): exactly Load/Store of the
// element, minus the split into lines, which an aligned power-of-two
// element never needs.
func (a *Accessor) Elem(addr uint64, write bool) {
	a.Accesses++
	a.accessLine(addr>>a.lineShift, write)
}

// Gather simulates, for each index i in idx, an access of the aligned
// element at base + i<<elemShift: a load if load, a store if store, and
// a load then a store if both. It is bit-identical in every observable
// to the same sequence of Elem calls, but it charges the whole list in
// one loop that holds the same-line register and the L1 counters in
// locals and leaves the loop only on an L1 miss. Elements must not
// straddle a line (see Elem).
func (a *Accessor) Gather(base uint64, elemShift uint, idx []uint32, load, store bool) {
	if !load && !store {
		return
	}
	if load && store {
		a.Accesses += 2 * uint64(len(idx))
	} else {
		a.Accesses += uint64(len(idx))
	}
	// The locals are written back around l1Miss, which adds to Cycles,
	// so every float add happens in the element path's order. An
	// update's store always hits the same-line register its load just
	// set, so the pair is charged in one step: the store's MarkDirty
	// walk moves up to the load (no other LLC operation comes between
	// them), and on an L1 miss it folds into the load's LLC probe.
	cycles, l1Hits, hitCycles := a.Cycles, a.L1Hits, a.l1HitCycles
	last, valid, dirty := a.lastLine, a.lastValid, a.lastDirty
	shift := a.lineShift
	for _, i := range idx {
		line := (base + uint64(i)<<elemShift) >> shift
		if valid && line == last {
			l1Hits++
			cycles += hitCycles
			if store && !dirty {
				a.llc.MarkDirty(line)
				dirty = true
			}
		} else {
			last, valid, dirty = line, true, store
			if a.l1.Access(line) {
				l1Hits++
				cycles += hitCycles
				if store {
					a.llc.MarkDirty(line)
				}
			} else {
				a.Cycles = cycles
				a.l1Miss(line, !load, store)
				cycles = a.Cycles
			}
		}
		if load && store {
			l1Hits++
			cycles += hitCycles
		}
	}
	a.Cycles, a.L1Hits = cycles, l1Hits
	a.lastLine, a.lastValid, a.lastDirty = last, valid, dirty
}

func (a *Accessor) access(addr uint64, size uint32, write bool) {
	a.Accesses++
	line := addr >> a.lineShift
	lastTouched := (addr + uint64(size) - 1) >> a.lineShift
	for {
		a.accessLine(line, write)
		if line >= lastTouched {
			break
		}
		line++
	}
}

// accessRange is the bulk fast path behind LoadRange/StoreRange. The
// element-at-a-time reference touches a non-decreasing line sequence in
// which every touch of a line after its first is a guaranteed L1 hit
// (the first touch leaves the line L1-resident and no other line
// intervenes), so per line it suffices to run the real pipeline once
// and credit the remaining touches as L1 hits in O(1).
func (a *Accessor) accessRange(addr uint64, elemSize uint32, count int, write bool) {
	if count <= 0 {
		return
	}
	es := uint64(elemSize)
	if es == 0 {
		// Degenerate zero-size accesses still touch one line each;
		// keep the reference path.
		for i := 0; i < count; i++ {
			a.access(addr, 0, write)
		}
		return
	}
	a.Accesses += uint64(count)
	first := addr >> a.lineShift
	last := (addr + es*uint64(count) - 1) >> a.lineShift
	if first == last {
		// One line (an offsets pair, a short edge list): every touch
		// after the first is a same-line L1 hit, with no Bresenham
		// set-up.
		a.accessLine(first, write)
		if extra := uint64(count - 1); extra > 0 {
			a.L1Hits += extra
			a.Cycles += float64(extra) * a.l1HitCycles
		}
		return
	}
	lineBytes := uint64(1) << a.lineShift
	// f and l index the first and last element whose byte span
	// intersects the current line; both advance with division-free
	// Bresenham steps (q/r precomputed once). rem is the offset of the
	// line's final byte within element l.
	q, r := lineBytes/es, lineBytes%es
	f := uint64(0)
	l := (first<<a.lineShift + lineBytes - addr - 1) / es
	rem := (first<<a.lineShift + lineBytes - addr - 1) % es
	for line := first; ; line++ {
		cl := l
		if cl > uint64(count-1) {
			cl = uint64(count - 1)
		}
		a.accessLine(line, write)
		if extra := cl - f; extra > 0 {
			a.L1Hits += extra
			a.Cycles += float64(extra) * a.l1HitCycles
		}
		if line == last {
			break
		}
		// Element l straddles into the next line iff it has bytes past
		// this line's final byte (rem < es-1).
		if rem < es-1 {
			f = l
		} else {
			f = l + 1
		}
		l += q
		rem += r
		if rem >= es {
			rem -= es
			l++
		}
	}
}

func (a *Accessor) accessLine(line uint64, write bool) {
	// Same-line register: a repeat of the previous access is an L1 hit
	// by construction and needs no cache walk at all.
	if a.lastValid && line == a.lastLine {
		a.L1Hits++
		a.Cycles += a.l1HitCycles
		if write && !a.lastDirty {
			a.llc.MarkDirty(line)
			a.lastDirty = true
		}
		return
	}
	a.lastLine, a.lastValid, a.lastDirty = line, true, write

	// L1 filter: a hit is the common case for sequential and
	// register-blocked access and costs almost nothing. Stores dirty
	// the LLC copy of the line (caches are modelled inclusive).
	if a.l1.Access(line) {
		a.L1Hits++
		a.Cycles += a.l1HitCycles
		if write {
			a.llc.MarkDirty(line)
		}
		return
	}
	a.l1Miss(line, write, write)
}

// l1Miss is the rest of a line access after the L1 filter missed: the
// LLC lookup and, on an LLC miss, stream detection, the fill,
// translation and the tier charge. It touches neither the same-line register nor L1Hits, so
// Gather can keep those in locals across the call. dirty flags the LLC
// entry modified in the probe: set for a store, and by Gather for the
// load of a load-then-store pair, whose store would flag it next.
func (a *Accessor) l1Miss(line uint64, write, dirty bool) {
	// A dirty access flags the entry in the lookup or the fill itself,
	// leaving the state an AccessHint then MarkDirty pair would.
	if a.llc.Hit(line, dirty) {
		a.LLCHits++
		a.Cycles += a.llcHitCycles
		return
	}
	// Stream detection: is the predecessor line L1-resident? The probe
	// runs after the miss installed line, so a 1-set L1 may already
	// have dropped line-1. An active forward stream fetched line-1 only
	// a handful of accesses ago, so its L1 residency is robust to
	// arbitrarily interleaved parallel-array streams, while a random
	// miss rarely lands one line past recently-touched data. The LLC
	// uses it for stream-resistant insertion and the cost model applies
	// prefetch coverage below. Only an LLC miss needs it, and the LLC
	// lookup does not touch the L1, so it is asked after the lookup.
	sequential := line != 0 && a.l1.Contains(line-1)
	a.llc.Fill(line, sequential, dirty)
	addr := line << a.lineShift
	pi := a.sys.pt.Translate(addr)

	// Translation: consult the TLB matching the mapping's page size.
	tlb := a.tlb4k
	if pi.Huge {
		tlb = a.tlb2m
	}
	if !tlb.Lookup(addr) {
		a.TLBMisses++
		a.Cycles += a.pageWalkCycles
	}

	t := pi.Tier

	lineBytes := uint64(1) << a.lineShift
	grainBytes := a.grain[t]
	demand := true
	if sequential {
		// Consecutive lines of a stream share the device access grain,
		// and the prefetcher covers most of them: only ~1/N of line
		// fetches surface as demand misses the profiler can observe.
		// The choice hashes the line number so it is deterministic yet
		// decorrelated across interleaved streams (a shared counter
		// phase-locks onto one stream and biases the sampler).
		grainBytes = lineBytes
		demand = mix64(line)%uint64(a.sys.P.PrefetchDemandInterval) == 0
	}
	// Degraded device regions (injected wear faults) multiply the
	// exposed miss latency. The healthy-path cost is one atomic nil
	// check inside DegradeFactor, and only misses pay it.
	deg := a.sys.DegradeFactor(addr)
	if write {
		if sequential {
			a.Cycles += a.storeMissCycles[t] * a.sys.P.PrefetchFactor * deg
		} else {
			a.Cycles += a.storeMissCycles[t] * deg
		}
		a.WriteBytes[t] += grainBytes
	} else {
		if sequential {
			a.Cycles += a.prefetchedCycles[t] * deg
		} else {
			a.Cycles += a.loadMissCycles[t] * deg
		}
		a.ReadBytes[t] += grainBytes
	}
	if a.traffic != nil {
		slowBytes := a.grain[TierSlow]
		if sequential {
			slowBytes = lineBytes
		}
		a.traffic(addr, slowBytes, write)
	}
	if !demand {
		a.PrefetchedLines++
		return
	}
	a.LLCMisses++
	if a.hook != nil {
		a.Cycles += a.hook(addr, write)
	}
}

// mix64 is a SplitMix64-style finalizer used to decorrelate per-line
// decisions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// InvalidateTLBRange models a TLB shootdown over [base, base+size) for
// this thread.
func (a *Accessor) InvalidateTLBRange(base, size uint64) {
	a.tlb4k.InvalidateRange(base, size)
	a.tlb2m.InvalidateRange(base, size)
}

// InvalidateCacheRange drops cached lines in the byte range
// [base, base+size).
func (a *Accessor) InvalidateCacheRange(base, size uint64) {
	if size == 0 {
		return
	}
	lo := base >> a.lineShift
	hi := (base+size-1)>>a.lineShift + 1
	a.llc.InvalidateRange(lo, hi)
	a.l1.InvalidateRange(lo, hi)
	a.lastValid = false // the register's line may be among the dropped
}

// ResetCounters zeroes time and traffic counters while keeping cache and
// TLB state warm — used between a warm-up and a measured phase.
func (a *Accessor) ResetCounters() {
	a.Cycles = 0
	a.ReadBytes = [NumTiers]uint64{}
	a.WriteBytes = [NumTiers]uint64{}
	a.WritebackBytes = [NumTiers]uint64{}
	a.Writebacks = 0
	a.Accesses = 0
	a.L1Hits = 0
	a.LLCHits = 0
	a.LLCMisses = 0
	a.PrefetchedLines = 0
	a.TLBMisses = 0
	// A new phase starts a new writeback stream: do not let the last
	// phase's final eviction coalesce across the barrier.
	a.lastWb = ^uint64(0)
}

// PhaseStats aggregates the execution of one phase (e.g. one benchmark
// iteration) across all threads and converts it into simulated wall time.
type PhaseStats struct {
	// WallSeconds is the simulated elapsed time of the phase.
	WallSeconds float64
	// LatencySeconds is the latency-path component (slowest thread).
	LatencySeconds float64
	// BandwidthSeconds is the traffic-path component.
	BandwidthSeconds float64
	// ReadBytes / WriteBytes / WritebackBytes per tier, summed over
	// threads.
	ReadBytes       [NumTiers]uint64
	WriteBytes      [NumTiers]uint64
	WritebackBytes  [NumTiers]uint64
	Accesses        uint64
	L1Hits          uint64
	LLCHits         uint64
	LLCMisses       uint64
	PrefetchedLines uint64
	TLBMisses       uint64
}

// ReducePhase folds per-thread accessor state into PhaseStats. Simulated
// wall time is the maximum of the slowest thread's cycle time and the
// per-tier bandwidth time; when the tiers share memory channels (Optane)
// their transfer times serialize, otherwise they overlap (KNL).
func (s *System) ReducePhase(accs []*Accessor) PhaseStats {
	var ps PhaseStats
	var maxCycles float64
	for _, a := range accs {
		if a.Cycles > maxCycles {
			maxCycles = a.Cycles
		}
		for t := 0; t < NumTiers; t++ {
			ps.ReadBytes[t] += a.ReadBytes[t]
			ps.WriteBytes[t] += a.WriteBytes[t]
			ps.WritebackBytes[t] += a.WritebackBytes[t]
		}
		ps.Accesses += a.Accesses
		ps.L1Hits += a.L1Hits
		ps.LLCHits += a.LLCHits
		ps.LLCMisses += a.LLCMisses
		ps.PrefetchedLines += a.PrefetchedLines
		ps.TLBMisses += a.TLBMisses
	}
	ps.LatencySeconds = maxCycles / (s.P.ClockGHz * 1e9 * float64(s.P.GangSize))

	var tierSeconds [NumTiers]float64
	for t := Tier(0); t < NumTiers; t++ {
		tp := s.P.Tiers[t]
		tierSeconds[t] = float64(ps.ReadBytes[t])/(tp.ReadBWGBs*1e9) +
			float64(ps.WriteBytes[t]+ps.WritebackBytes[t])/(tp.WriteBWGBs*1e9)
	}
	if s.P.SharedChannels {
		ps.BandwidthSeconds = tierSeconds[TierFast] + tierSeconds[TierSlow]
	} else {
		ps.BandwidthSeconds = tierSeconds[TierFast]
		if tierSeconds[TierSlow] > ps.BandwidthSeconds {
			ps.BandwidthSeconds = tierSeconds[TierSlow]
		}
	}
	ps.WallSeconds = ps.LatencySeconds
	if ps.BandwidthSeconds > ps.WallSeconds {
		ps.WallSeconds = ps.BandwidthSeconds
	}
	return ps
}
