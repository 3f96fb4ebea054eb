package memsim

import (
	"fmt"
	"slices"
	"sort"
)

// Tenant sub-ledgers: the system can attribute fast-tier occupancy and
// quarantine debits to the tenant that owns each address range, so a
// broker sharing one System across runtimes can charge every byte —
// including retired ones — to the runtime that placed it there.
//
// Ownership is declarative: a runtime adopts the ranges it allocated
// (AdoptRange after a successful allocation) and the system keeps the
// per-tenant counters current at every mutation point that changes a
// page's tier (Retier, RestoreTiers, Free) or retires pages
// (RetirePages). All bookkeeping happens under the existing system
// lock on control-plane paths only; the kernel access fast path never
// consults the owner table, and a system with no adopted ranges pays
// nothing.

// ownerRange is one adopted stretch of the address space.
type ownerRange struct {
	base, size uint64
	owner      int
}

// tenantUsage is one tenant's sub-ledger. Plain counters: every
// mutation and read happens under s.mu.
type tenantUsage struct {
	fast        uint64 // owned bytes currently mapped on the fast tier
	quarantined uint64 // quarantine debits attributed to the owner
}

// TenantUsage is a snapshot of one tenant's sub-ledger.
type TenantUsage struct {
	// FastBytes is how many of the tenant's owned bytes are mapped on
	// the fast tier right now.
	FastBytes uint64
	// QuarantinedBytes is the share of the quarantine ledger retired
	// out of ranges the tenant currently owns — the capacity debit the
	// tenant's faults cost the shared fast tier.
	QuarantinedBytes uint64
}

// AdoptRange records that owner (> 0) owns [base, base+size) and folds
// the range's current fast-tier bytes into the owner's sub-ledger.
// Adopting an already-owned stretch re-owns it (the previous owner's
// counters are adjusted). Zero-size adoptions are ignored.
func (s *System) AdoptRange(owner int, base, size uint64) {
	if size == 0 || owner <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disownLocked(base, size)
	i := sort.Search(len(s.owners), func(i int) bool { return s.owners[i].base > base })
	s.owners = slices.Insert(s.owners, i, ownerRange{base: base, size: size, owner: owner})
	u := s.tenantLocked(owner)
	u.fast += s.fastBytesLocked(base, size)
	u.quarantined += s.quarOverlapBytesLocked(base, size)
}

// disownLocked removes ownership of any stretch of [base, base+size),
// clipping partially-overlapping owner ranges. The owners' fast and
// quarantine counters drop by the disowned bytes' contributions; the
// global ledgers are untouched (a freed range's quarantined pages stay
// retired, they just stop being charged to a tenant). Callers hold s.mu.
func (s *System) disownLocked(base, size uint64) {
	var next []ownerRange
	for _, or := range s.owners {
		lo, hi := maxU64(or.base, base), minU64(or.base+or.size, base+size)
		if lo >= hi { // no overlap
			next = append(next, or)
			continue
		}
		u := s.tenantLocked(or.owner)
		u.fast -= s.fastBytesLocked(lo, hi-lo)
		u.quarantined -= s.quarOverlapBytesLocked(lo, hi-lo)
		if or.base < lo {
			next = append(next, ownerRange{base: or.base, size: lo - or.base, owner: or.owner})
		}
		if or.base+or.size > hi {
			next = append(next, ownerRange{base: hi, size: or.base + or.size - hi, owner: or.owner})
		}
	}
	s.owners = next
}

// TenantUsage returns owner's sub-ledger snapshot (zero for unknown
// owners).
func (s *System) TenantUsage(owner int) TenantUsage {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.tenants[owner]
	if u == nil {
		return TenantUsage{}
	}
	return TenantUsage{FastBytes: u.fast, QuarantinedBytes: u.quarantined}
}

// tenantLocked resolves (or creates) owner's sub-ledger; callers hold
// s.mu.
func (s *System) tenantLocked(owner int) *tenantUsage {
	if s.tenants == nil {
		s.tenants = make(map[int]*tenantUsage)
	}
	u := s.tenants[owner]
	if u == nil {
		u = &tenantUsage{}
		s.tenants[owner] = u
	}
	return u
}

// pageOwnersLocked calls fn once per owner range overlapping page i,
// with the range's index in s.owners and the bytes of the page it owns.
// Owner ranges are byte-granular (an adopted range need not end on a
// page boundary), so attribution clips to the owned stretch. Callers
// walk pages in ascending order with one cursor *k (starting at 0) into
// the sorted owner table; it only moves forward, so a walk attributes
// every page without a search. Callers hold s.mu.
func (s *System) pageOwnersLocked(i uint64, k *int, fn func(j int, bytes uint64)) {
	lo, hi := i<<smallShift, i<<smallShift+SmallPage
	for *k < len(s.owners) && s.owners[*k].base+s.owners[*k].size <= lo {
		*k++
	}
	for j := *k; j < len(s.owners) && s.owners[j].base < hi; j++ {
		or := s.owners[j]
		fn(j, minU64(or.base+or.size, hi)-maxU64(or.base, lo))
	}
}

// tenantRetierLocked charges page i's tier change to the owners it
// overlaps (if any), advancing the page walk's cursor k; callers hold
// s.mu and call it exactly where the global used ledger moves (a freed
// fast page moves to no tier).
func (s *System) tenantRetierLocked(i uint64, k *int, from, to Tier) {
	if len(s.owners) == 0 || from == to {
		return
	}
	s.pageOwnersLocked(i, k, func(j int, bytes uint64) {
		u := s.tenantLocked(s.owners[j].owner)
		if from == TierFast {
			u.fast -= bytes
		}
		if to == TierFast {
			u.fast += bytes
		}
	})
}

// tenantRetireLocked attributes one newly-quarantined range to the
// owners it overlaps; callers hold s.mu.
func (s *System) tenantRetireLocked(base, size uint64) {
	for _, or := range s.owners {
		lo, hi := maxU64(or.base, base), minU64(or.base+or.size, base+size)
		if lo < hi {
			s.tenantLocked(or.owner).quarantined += hi - lo
		}
	}
}

// fastBytesLocked counts the fast-mapped bytes of [base, base+size);
// callers hold s.mu.
func (s *System) fastBytesLocked(base, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	var out uint64
	first := base >> smallShift
	last := (base + size - 1) >> smallShift
	for i := first; i <= last; i++ {
		pi, err := s.pt.lookup(i)
		if err != nil || !pi.Mapped || pi.Tier != TierFast {
			continue
		}
		lo, hi := i<<smallShift, i<<smallShift+SmallPage
		if lo < base {
			lo = base
		}
		if hi > base+size {
			hi = base + size
		}
		out += hi - lo
	}
	return out
}

// quarOverlapBytesLocked counts the quarantined bytes inside
// [base, base+size); callers hold s.mu.
func (s *System) quarOverlapBytesLocked(base, size uint64) uint64 {
	var out uint64
	for _, q := range s.quarRanges {
		lo, hi := maxU64(q.Base, base), minU64(q.Base+q.Size, base+size)
		if lo < hi {
			out += hi - lo
		}
	}
	return out
}

// checkTenantsLocked compares every tenant's running sub-ledger to one
// recomputed from fast (the owned fast bytes per owner range, counted
// by CheckConsistency's page-table pass) and the quarantine ledger —
// the tenant-attribution half of CheckConsistency. Callers hold s.mu.
func (s *System) checkTenantsLocked(fast []uint64) error {
	want := make(map[int]tenantUsage, len(s.tenants))
	for j, or := range s.owners {
		w := want[or.owner]
		w.fast += fast[j]
		w.quarantined += s.quarOverlapBytesLocked(or.base, or.size)
		want[or.owner] = w
	}
	for owner, u := range s.tenants {
		w := want[owner]
		if u.fast != w.fast || u.quarantined != w.quarantined {
			return fmt.Errorf("memsim: tenant %d sub-ledger drift: fast %d (recomputed %d), quarantined %d (recomputed %d)",
				owner, u.fast, w.fast, u.quarantined, w.quarantined)
		}
	}
	return nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
