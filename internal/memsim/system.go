package memsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"atmem/internal/faultinject"
)

// ErrNoCapacity is the sentinel wrapped by every capacity-exhaustion
// failure of the system (Alloc, AllocPrefer, Reserve, Retier), so callers
// can distinguish "the tier is full" from structural errors with
// errors.Is and degrade instead of aborting.
var ErrNoCapacity = errors.New("memsim: out of capacity")

// ErrQuarantined is the sentinel wrapped by operations that would map
// data onto retired fast-tier pages. It is a backstop: the governor and
// plan replayer filter their schedules against the quarantine ledger, so
// hitting this error means a caller bypassed them.
var ErrQuarantined = errors.New("memsim: range quarantined")

// FaultHook is consulted on entry of the system's fault-pointed
// operations (Alloc/AllocPrefer → OpAlloc, Reserve, Retier, Splinter). A
// non-nil return makes the operation fail before mutating any state —
// the contract fault-injection tests rely on. RestoreTiers, the
// transactional rollback primitive, deliberately bypasses the hook: an
// unwind path must not itself fault.
type FaultHook interface {
	Check(op faultinject.Op) error
}

// RangeFaultHook is optionally implemented by fault hooks that also
// match the touched address range (persistent device faults pin an
// injected failure to a range). Address-carrying operations (Retier,
// Splinter) pass their range through it; hooks without the method fall
// back to the rangeless Check.
type RangeFaultHook interface {
	CheckRange(op faultinject.Op, base, size uint64) error
}

// QuarantinedRange is one retired stretch of the virtual address space:
// its pages may never be mapped to the fast tier again, and its size
// stays charged against fast-tier capacity (the device region behind it
// is gone for good).
type QuarantinedRange struct {
	Base, Size uint64
}

// DegradedRange is one latency-degraded stretch of the address space:
// accesses that miss into it cost Factor times the modelled tier
// latency (a worn device region that still works, slowly).
type DegradedRange struct {
	Base, Size uint64
	Factor     float64
}

// System is one simulated heterogeneous memory machine: a virtual address
// space backed by two memory tiers.
//
// Concurrency contract: mutating operations are serialized by an internal
// lock; the hot read path used by accessors (Translate/TierOf and the
// capacity getters) takes no locks, and tier ledgers are atomic counters
// that metrics scrapes may read at any time. No mapping changes while a
// phase runs: the runtime places, heals and allocates only between
// phases (a broker serializes its tenants' phases and placements), so
// every access of a phase translates against one page table, and a
// migration's invalidations are broadcast to the accessors directly.
type System struct {
	P SystemParams

	mu       sync.Mutex
	pt       *PageTable
	nextVA   uint64
	used     [NumTiers]atomic.Uint64 // bytes mapped in the page table
	reserved [NumTiers]atomic.Uint64 // bytes held by Reserve (staging buffers)
	faults   FaultHook

	// Quarantine ledger: retired fast-tier ranges. The byte total is
	// atomic so the lock-free capacity getters can charge it; the range
	// list is guarded by mu. healthGen counts every health mutation
	// (retirement, degradation) and keys plan-staleness fingerprints.
	quarantined atomic.Uint64
	quarRanges  []QuarantinedRange
	healthGen   atomic.Uint64

	// Degraded ranges, published as an immutable slice so the accessor
	// miss path reads them with one atomic load (nil means none).
	degrades atomic.Pointer[[]DegradedRange]

	// Tenant sub-ledgers (tenant.go): adopted owner ranges sorted by
	// base, and per-owner fast/quarantine counters. Guarded by mu;
	// empty until a range is adopted, costing the mutation paths one
	// length check.
	owners  []ownerRange
	tenants map[int]*tenantUsage
}

// NewSystem builds a System from params. It panics if params are invalid,
// since every preset in this module must validate.
func NewSystem(p SystemParams) *System {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &System{
		P:      p,
		pt:     NewPageTable(),
		nextVA: HugePage, // keep address 0 unmapped
	}
}

// PageTable exposes the system page table to migration engines.
func (s *System) PageTable() *PageTable { return s.pt }

// SetFaultHook attaches a fault hook (typically a *faultinject.Injector)
// to the system's fault points. Pass nil to detach. Install it before
// concurrent use; the hook itself must be safe for concurrent calls.
func (s *System) SetFaultHook(h FaultHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = h
}

// faultCheckLocked evaluates the fault hook for op; callers hold s.mu.
func (s *System) faultCheckLocked(op faultinject.Op) error {
	if s.faults == nil {
		return nil
	}
	return s.faults.Check(op)
}

// faultCheckRangeLocked evaluates the fault hook for an address-carrying
// operation. Hooks implementing RangeFaultHook see the touched range (so
// persistent range rules can match); others get a plain Check. Callers
// hold s.mu.
func (s *System) faultCheckRangeLocked(op faultinject.Op, base, size uint64) error {
	if s.faults == nil {
		return nil
	}
	if rh, ok := s.faults.(RangeFaultHook); ok {
		return rh.CheckRange(op, base, size)
	}
	return s.faults.Check(op)
}

// ledgerAdd / ledgerSub mutate a tier ledger. Callers hold s.mu (the
// atomics exist for the lock-free readers, not to serialize writers).
func ledgerAdd(l *atomic.Uint64, d uint64) { l.Add(d) }
func ledgerSub(l *atomic.Uint64, d uint64) { l.Add(^(d - 1)) }

// RoundUp rounds size up to a multiple of align (a power of two).
func RoundUp(size, align uint64) uint64 {
	return (size + align - 1) &^ (align - 1)
}

// Alloc reserves a virtual range of at least size bytes backed by tier t
// and returns its base address. Allocations of at least one huge page are
// huge-page backed (the transparent-huge-page behaviour large graph
// allocations get on the real testbeds); smaller ones use 4 KiB pages.
// Alloc fails when the tier lacks capacity.
func (s *System) Alloc(size uint64, t Tier) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("memsim: zero-size allocation")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.faultCheckLocked(faultinject.OpAlloc); err != nil {
		return 0, err
	}
	huge := size >= HugePage
	align := uint64(SmallPage)
	if huge {
		align = HugePage
	}
	mapped := RoundUp(size, align)
	if s.committedLocked(t)+mapped > s.P.Tiers[t].CapacityBytes {
		return 0, fmt.Errorf("%w: tier %s: used %d + %d > %d",
			ErrNoCapacity, t, s.committedLocked(t), mapped, s.P.Tiers[t].CapacityBytes)
	}
	base := RoundUp(s.nextVA, HugePage) // huge-align every object's base
	if err := s.pt.Map(base, mapped, t, huge); err != nil {
		return 0, err
	}
	s.nextVA = base + mapped
	ledgerAdd(&s.used[t], mapped)
	return base, nil
}

// AllocPrefer reserves a virtual range backed by the fast tier for as
// many leading pages as its remaining capacity allows, spilling the rest
// to the slow tier — the page-granular behaviour of a preferred NUMA
// policy (`numactl -p`, the paper's MCDRAM-p reference): capacity is
// consumed in allocation order with no regard for criticality. The range
// is 4 KiB-mapped when split across tiers (a preferred-policy allocation
// cannot promise huge-page backing across the spill point).
func (s *System) AllocPrefer(size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("memsim: zero-size allocation")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.faultCheckLocked(faultinject.OpAlloc); err != nil {
		return 0, err
	}
	base := RoundUp(s.nextVA, HugePage)
	huge := size >= HugePage

	// Whole-object placement (huge pages preserved) when a tier has
	// room for the full aligned size.
	tryWhole := func(t Tier) (bool, error) {
		align := uint64(SmallPage)
		if huge {
			align = HugePage
		}
		aligned := RoundUp(size, align)
		if s.committedLocked(t)+aligned > s.P.Tiers[t].CapacityBytes {
			return false, nil
		}
		if err := s.pt.Map(base, aligned, t, huge); err != nil {
			return false, err
		}
		s.nextVA = base + aligned
		ledgerAdd(&s.used[t], aligned)
		return true, nil
	}
	if ok, err := tryWhole(TierFast); err != nil || ok {
		return base, err
	}

	// Page-granular spill: leading pages on the fast tier until it is
	// full, the rest on the slow tier (both 4 KiB-mapped; a preferred
	// policy cannot promise huge pages across the spill point).
	mapped := RoundUp(size, SmallPage)
	freeFast := (s.P.Tiers[TierFast].CapacityBytes - s.committedLocked(TierFast)) &^ (SmallPage - 1)
	fastPart := mapped
	if fastPart > freeFast {
		fastPart = freeFast
	}
	slowPart := mapped - fastPart
	if fastPart == 0 {
		if ok, err := tryWhole(TierSlow); err != nil || ok {
			return base, err
		}
	}
	if s.committedLocked(TierSlow)+slowPart > s.P.Tiers[TierSlow].CapacityBytes {
		return 0, fmt.Errorf("%w: tier %s: preferred spill of %d bytes",
			ErrNoCapacity, TierSlow, slowPart)
	}
	if fastPart > 0 {
		if err := s.pt.Map(base, fastPart, TierFast, false); err != nil {
			return 0, err
		}
	}
	if slowPart > 0 {
		if err := s.pt.Map(base+fastPart, slowPart, TierSlow, false); err != nil {
			return 0, err
		}
	}
	s.nextVA = base + mapped
	ledgerAdd(&s.used[TierFast], fastPart)
	ledgerAdd(&s.used[TierSlow], slowPart)
	return base, nil
}

// Extent returns the mapped span of the allocation of size bytes at
// base, the range Free unmaps: a huge-page multiple for an object of at
// least one huge page, unless AllocPrefer spilled it, which maps 4 KiB
// pages only. Every allocation's base is huge-aligned, so the pages
// between the two roundings belong to the object and are either all
// mapped or all unmapped.
func (s *System) Extent(base, size uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.extentLocked(base, size)
}

func (s *System) extentLocked(base, size uint64) uint64 {
	huge := RoundUp(size, HugePage)
	if size >= HugePage && s.pt.word((base+huge-1)>>smallShift)&pteMapped != 0 {
		return huge
	}
	return RoundUp(size, SmallPage)
}

// Free releases the mapping of the object at [base, base+size). size must
// be the original requested size.
func (s *System) Free(base, size uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mapped := s.extentLocked(base, size)
	// Check every page before touching a ledger, then account per page
	// so partially migrated objects are handled.
	first, n := base>>smallShift, mapped>>smallShift
	for i := first; i < first+n; i++ {
		if _, err := s.pt.lookup(i); err != nil {
			return err
		}
	}
	k := 0
	for i := first; i < first+n; i++ {
		pi := unpackPTE(s.pt.word(i))
		ledgerSub(&s.used[pi.Tier], SmallPage)
		s.tenantRetierLocked(i, &k, pi.Tier, NumTiers) // unmapped: no tier
		s.pt.set(i, PageInfo{})
	}
	// A freed range stops being owned: its remaining (slow-tier) bytes
	// and any quarantine overlap no longer charge the tenant.
	s.disownLocked(base, mapped)
	return nil
}

// Retier changes the backing tier of the page-aligned range
// [base, base+size), preserving page sizes and updating capacity
// accounting. It fails (without changes) when the destination tier lacks
// capacity.
func (s *System) Retier(base, size uint64, t Tier) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The fault hook sees the touched range only when data moves toward
	// the fast tier: a persistent fault models a bad fast-tier device
	// region, and evacuating data off it must stay possible.
	fb, fs := base, size
	if t != TierFast {
		fb, fs = 0, 0
	}
	if err := s.faultCheckRangeLocked(faultinject.OpRetier, fb, fs); err != nil {
		return err
	}
	return s.retierLocked(base, size, t)
}

func (s *System) retierLocked(base, size uint64, t Tier) error {
	if base%SmallPage != 0 || size%SmallPage != 0 {
		return fmt.Errorf("memsim: Retier [%#x,+%#x) not page-aligned", base, size)
	}
	if t == TierFast && s.quarOverlapLocked(base, size) {
		return fmt.Errorf("%w: retier [%#x,+%#x) toward %s", ErrQuarantined, base, size, t)
	}
	first, n := base>>smallShift, size>>smallShift
	var moving uint64
	for i := first; i < first+n; i++ {
		pi, err := s.pt.lookup(i)
		if err != nil {
			return err
		}
		if pi.Tier != t {
			moving += SmallPage
		}
	}
	if s.committedLocked(t)+moving > s.P.Tiers[t].CapacityBytes {
		return fmt.Errorf("%w: tier %s: retier of %d bytes", ErrNoCapacity, t, moving)
	}
	k := 0
	for i := first; i < first+n; i++ {
		pi := unpackPTE(s.pt.word(i))
		if pi.Tier == t {
			continue
		}
		ledgerSub(&s.used[pi.Tier], SmallPage)
		ledgerAdd(&s.used[t], SmallPage)
		s.tenantRetierLocked(i, &k, pi.Tier, t)
		pi.Tier = t
		s.pt.set(i, pi)
	}
	return nil
}

// Splinter breaks huge mappings intersecting [base, base+size) into 4 KiB
// mappings (see PageTable.Splinter).
func (s *System) Splinter(base, size uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.faultCheckRangeLocked(faultinject.OpSplinter, base, size); err != nil {
		return err
	}
	return s.pt.Splinter(base, size)
}

// committedLocked is the capacity charge against tier t: mapped bytes,
// outstanding reservations, and — on the fast tier — quarantined bytes,
// so every capacity check automatically sees retired pages as capacity
// that no longer exists. Callers hold s.mu.
func (s *System) committedLocked(t Tier) uint64 {
	c := s.used[t].Load() + s.reserved[t].Load()
	if t == TierFast {
		c += s.quarantined.Load()
	}
	return c
}

// Reserve charges size bytes against tier t without mapping anything —
// used for transient staging buffers during migration. Release with
// Unreserve.
func (s *System) Reserve(size uint64, t Tier) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.faultCheckLocked(faultinject.OpReserve); err != nil {
		return err
	}
	if s.committedLocked(t)+size > s.P.Tiers[t].CapacityBytes {
		return fmt.Errorf("%w: tier %s: %d-byte reservation", ErrNoCapacity, t, size)
	}
	ledgerAdd(&s.reserved[t], size)
	return nil
}

// Unreserve returns a Reserve'd charge.
func (s *System) Unreserve(size uint64, t Tier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reserved[t].Load() < size {
		panic("memsim: Unreserve below zero")
	}
	ledgerSub(&s.reserved[t], size)
}

// Used returns the bytes currently mapped or reserved on tier t. It is a
// lock-free atomic read, safe from any goroutine.
func (s *System) Used(t Tier) uint64 {
	return s.used[t].Load() + s.reserved[t].Load()
}

// Reserved returns the bytes currently held by Reserve on tier t. After
// a completed migration it must be zero — the no-leaked-reservations
// invariant the runtime's post-migration checker enforces.
func (s *System) Reserved(t Tier) uint64 {
	return s.reserved[t].Load()
}

// TierUsage returns the mapped and reserved byte counts of tier t. Each
// counter is read atomically; the pair may straddle a concurrent
// migration step, which telemetry snapshots tolerate.
func (s *System) TierUsage(t Tier) (mapped, reserved uint64) {
	return s.used[t].Load(), s.reserved[t].Load()
}

// FreeCapacity returns the free capacity remaining on tier t, after
// mapped bytes, reservations, and (fast tier) quarantined bytes.
func (s *System) FreeCapacity(t Tier) uint64 {
	committed := s.used[t].Load() + s.reserved[t].Load()
	if t == TierFast {
		committed += s.quarantined.Load()
	}
	cap := s.P.Tiers[t].CapacityBytes
	if committed > cap {
		return 0
	}
	return cap - committed
}

// EffectiveOccupancy returns committed bytes on tier t as a fraction of
// the tier's capacity after subtracting holdback bytes (a caller-owned
// reserve, e.g. the runtime's CapacityReserve) and, on the fast tier,
// quarantined bytes — retired pages shrink the denominator, so pressure
// rises as the device loses capacity. The governor compares this against
// its watermarks. Occupancy of a fully-held-back tier is reported as 1
// (maximally pressured), and the fraction may exceed 1 when committed
// bytes eat into the holdback.
func (s *System) EffectiveOccupancy(t Tier, holdback uint64) float64 {
	if t == TierFast {
		holdback += s.quarantined.Load()
	}
	cap := s.P.Tiers[t].CapacityBytes
	if cap <= holdback {
		return 1
	}
	committed := s.used[t].Load() + s.reserved[t].Load()
	return float64(committed) / float64(cap-holdback)
}

// TierOf returns the tier currently backing addr. Lock-free.
func (s *System) TierOf(addr uint64) (Tier, bool) {
	return s.pt.TierOf(addr)
}

// BytesOnTier reports how many bytes of the page-spanning range
// [base, base+size) are on each tier.
func (s *System) BytesOnTier(base, size uint64) [NumTiers]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [NumTiers]uint64
	if size == 0 {
		return out
	}
	first := base >> smallShift
	last := (base + size - 1) >> smallShift
	for i := first; i <= last; i++ {
		pi, err := s.pt.lookup(i)
		if err != nil {
			continue
		}
		lo := i << smallShift
		hi := lo + SmallPage
		if lo < base {
			lo = base
		}
		if hi > base+size {
			hi = base + size
		}
		out[pi.Tier] += hi - lo
	}
	return out
}

// TierSnapshot captures the tier of every 4 KiB page of the page-aligned
// range [base, base+size), in address order — the undo log a
// transactional migration takes before remapping a region.
func (s *System) TierSnapshot(base, size uint64) ([]Tier, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if base%SmallPage != 0 || size%SmallPage != 0 {
		return nil, fmt.Errorf("memsim: TierSnapshot [%#x,+%#x) not page-aligned", base, size)
	}
	first, n := base>>smallShift, size>>smallShift
	out := make([]Tier, n)
	for i := uint64(0); i < n; i++ {
		pi, err := s.pt.lookup(first + i)
		if err != nil {
			return nil, err
		}
		out[i] = pi.Tier
	}
	return out, nil
}

// RestoreTiers reverts the pages starting at base to a TierSnapshot
// prefix: page i of the range returns to tiers[i]. It is the rollback
// primitive of the transactional migration engines, so it deliberately
// bypasses the fault hook (an unwind path must not itself fault) and
// performs no capacity check: restoring a snapshot only returns bytes to
// tiers they were charged to when the snapshot was taken, and the
// migration that took the snapshot still holds the reservations covering
// any interim growth.
func (s *System) RestoreTiers(base uint64, tiers []Tier) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if base%SmallPage != 0 {
		return fmt.Errorf("memsim: RestoreTiers base %#x not page-aligned", base)
	}
	first := base >> smallShift
	for i := range tiers {
		if _, err := s.pt.lookup(first + uint64(i)); err != nil {
			return err
		}
	}
	k := 0
	for i, t := range tiers {
		vpage := first + uint64(i)
		pi := unpackPTE(s.pt.word(vpage))
		if pi.Tier == t {
			continue
		}
		ledgerSub(&s.used[pi.Tier], SmallPage)
		ledgerAdd(&s.used[t], SmallPage)
		s.tenantRetierLocked(vpage, &k, pi.Tier, t)
		pi.Tier = t
		s.pt.set(vpage, pi)
	}
	return nil
}

// quarOverlapLocked reports whether [base, base+size) intersects any
// quarantined range. Callers hold s.mu.
func (s *System) quarOverlapLocked(base, size uint64) bool {
	for _, q := range s.quarRanges {
		if base < q.Base+q.Size && q.Base < base+size {
			return true
		}
	}
	return false
}

// RetirePages quarantines the page-aligned range [base, base+size): its
// pages may never be mapped to the fast tier again, and the bytes stay
// charged against fast-tier capacity forever (the device region is
// gone). Every page of the range must already be off the fast tier —
// evacuate first, retire second — and the charge must fit the remaining
// capacity. Already-quarantined stretches of the range are skipped, so
// overlapping retirements (scoreboard and scrubber condemning the same
// granule) are safe. Each retirement bumps the health generation.
func (s *System) RetirePages(base, size uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if base%SmallPage != 0 || size%SmallPage != 0 {
		return fmt.Errorf("memsim: RetirePages [%#x,+%#x) not page-aligned", base, size)
	}
	if size == 0 {
		return nil
	}
	first, n := base>>smallShift, size>>smallShift
	for i := first; i < first+n; i++ {
		pi, err := s.pt.lookup(i)
		if err != nil {
			continue // never-mapped stretches of a device range retire fine
		}
		if pi.Mapped && pi.Tier == TierFast {
			return fmt.Errorf("memsim: RetirePages [%#x,+%#x): page %#x still fast-mapped; evacuate before retiring",
				base, size, i<<smallShift)
		}
	}
	// Clip out stretches already retired; charge and record the rest.
	adds := s.quarSubtractLocked(base, size)
	var adding uint64
	for _, add := range adds {
		adding += add.Size
	}
	if adding == 0 {
		return nil
	}
	if s.committedLocked(TierFast)+adding > s.P.Tiers[TierFast].CapacityBytes {
		return fmt.Errorf("%w: tier %s: retiring %d bytes", ErrNoCapacity, TierFast, adding)
	}
	s.quarRanges = append(s.quarRanges, adds...)
	for _, add := range adds {
		s.tenantRetireLocked(add.Base, add.Size)
	}
	s.quarantined.Add(adding)
	s.healthGen.Add(1)
	return nil
}

// quarSubtractLocked returns the sub-ranges of [base, base+size) not yet
// covered by the quarantine ledger. Callers hold s.mu.
func (s *System) quarSubtractLocked(base, size uint64) []QuarantinedRange {
	pending := []QuarantinedRange{{Base: base, Size: size}}
	for _, q := range s.quarRanges {
		var next []QuarantinedRange
		for _, p := range pending {
			if p.Base >= q.Base+q.Size || q.Base >= p.Base+p.Size {
				next = append(next, p)
				continue
			}
			if p.Base < q.Base {
				next = append(next, QuarantinedRange{Base: p.Base, Size: q.Base - p.Base})
			}
			if p.Base+p.Size > q.Base+q.Size {
				next = append(next, QuarantinedRange{Base: q.Base + q.Size, Size: p.Base + p.Size - (q.Base + q.Size)})
			}
		}
		pending = next
	}
	return pending
}

// Quarantined returns the total bytes retired from the fast tier. It is
// a lock-free atomic read, safe from any thread.
func (s *System) Quarantined() uint64 { return s.quarantined.Load() }

// QuarantinedRanges returns a copy of the quarantine ledger, in
// retirement order.
func (s *System) QuarantinedRanges() []QuarantinedRange {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QuarantinedRange, len(s.quarRanges))
	copy(out, s.quarRanges)
	return out
}

// IsQuarantined reports whether any page of [base, base+size) is
// retired. The governor and plan replayer consult it before scheduling
// a promotion.
func (s *System) IsQuarantined(base, size uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarOverlapLocked(base, size)
}

// HealthGen returns the health generation: a counter bumped on every
// page retirement and range degradation. Compiled-plan signatures embed
// it, so any health change makes a recorded plan stale (the plan was
// recorded against capacity that no longer exists). Lock-free.
func (s *System) HealthGen() uint64 { return s.healthGen.Load() }

// DegradeRange installs a latency degradation over [base, base+size):
// accesses missing into the range cost factor times the modelled
// latency from now on. Overlapping degradations compound (each matching
// range contributes its factor). Factors at or below 1 are ignored.
func (s *System) DegradeRange(base, size uint64, factor float64) {
	if size == 0 || factor <= 1 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var next []DegradedRange
	if cur := s.degrades.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, DegradedRange{Base: base, Size: size, Factor: factor})
	s.degrades.Store(&next)
	s.healthGen.Add(1)
}

// DegradeFactor returns the combined latency multiplier for addr (1 when
// the address is healthy). One atomic load on the common no-degradation
// path; accessors call it only on cache misses.
func (s *System) DegradeFactor(addr uint64) float64 {
	p := s.degrades.Load()
	if p == nil {
		return 1
	}
	f := 1.0
	for _, d := range *p {
		if addr >= d.Base && addr < d.Base+d.Size {
			f *= d.Factor
		}
	}
	return f
}

// Degraded returns a copy of the installed degradations, in install
// order.
func (s *System) Degraded() []DegradedRange {
	p := s.degrades.Load()
	if p == nil {
		return nil
	}
	out := make([]DegradedRange, len(*p))
	copy(out, *p)
	return out
}

// CheckConsistency verifies the capacity-accounting invariants: the page
// table's per-tier mapped-byte totals match the used ledger, the
// quarantine ledger's byte total matches its ranges and covers no
// fast-mapped page, and no tier is committed (mapped + reserved +
// quarantined) beyond its capacity. The runtime's post-migration
// invariant checker calls it after every Optimize.
func (s *System) CheckConsistency() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var mapped [NumTiers]uint64
	ownedFast := make([]uint64, len(s.owners))
	k := 0
	pages := s.pt.slice()
	for i := range pages {
		pi := unpackPTE(pages[i].Load())
		if !pi.Mapped {
			continue
		}
		mapped[pi.Tier] += SmallPage
		if pi.Tier == TierFast && len(s.owners) > 0 {
			s.pageOwnersLocked(uint64(i), &k, func(j int, bytes uint64) { ownedFast[j] += bytes })
		}
	}
	for t := Tier(0); t < NumTiers; t++ {
		if mapped[t] != s.used[t].Load() {
			return fmt.Errorf("memsim: tier %s accounting drift: page table maps %d bytes, ledger says %d",
				t, mapped[t], s.used[t].Load())
		}
		if s.committedLocked(t) > s.P.Tiers[t].CapacityBytes {
			return fmt.Errorf("memsim: tier %s over-committed: %d mapped + %d reserved + %d quarantined > %d capacity",
				t, s.used[t].Load(), s.reserved[t].Load(), s.quarantined.Load(), s.P.Tiers[t].CapacityBytes)
		}
	}
	var quarTotal uint64
	for _, q := range s.quarRanges {
		quarTotal += q.Size
		first, n := q.Base>>smallShift, q.Size>>smallShift
		for i := first; i < first+n; i++ {
			pi, err := s.pt.lookup(i)
			if err != nil {
				continue
			}
			if pi.Mapped && pi.Tier == TierFast {
				return fmt.Errorf("memsim: quarantined page %#x is fast-mapped", i<<smallShift)
			}
		}
	}
	if quarTotal != s.quarantined.Load() {
		return fmt.Errorf("memsim: quarantine drift: ranges cover %d bytes, ledger says %d",
			quarTotal, s.quarantined.Load())
	}
	return s.checkTenantsLocked(ownedFast)
}
