package memsim

import (
	"fmt"
	"sync/atomic"
)

// PageInfo describes the mapping of one 4 KiB virtual page.
type PageInfo struct {
	// Mapped is false for unmapped address space.
	Mapped bool
	// Huge is true when the page is part of a 2 MiB mapping.
	Huge bool
	// Tier is the physical memory the page resides on.
	Tier Tier
}

// Each page-table entry packs into one atomic 64-bit word, so a reader
// racing a mutator sees either the old or the new mapping of a page,
// never a torn mix.
const (
	pteMapped uint64 = 1 << 0
	pteHuge   uint64 = 1 << 1

	pteTierShift = 8
	pteTierMask  = uint64(0xff) << pteTierShift
)

// packPTE encodes pi.
func packPTE(pi PageInfo) uint64 {
	var w uint64
	if pi.Mapped {
		w |= pteMapped
	}
	if pi.Huge {
		w |= pteHuge
	}
	return w | uint64(pi.Tier)<<pteTierShift
}

// unpackPTE decodes a word.
func unpackPTE(w uint64) PageInfo {
	return PageInfo{
		Mapped: w&pteMapped != 0,
		Huge:   w&pteHuge != 0,
		Tier:   Tier((w & pteTierMask) >> pteTierShift),
	}
}

// PageTable maps a flat virtual address space to memory tiers at 4 KiB
// granularity, with huge-page (2 MiB) mappings represented as 512
// consecutive entries flagged Huge. It is the substrate both migration
// engines manipulate: the ATMem engine remaps ranges wholesale and keeps
// huge mappings, while the mbind-style engine splinters them into 4 KiB
// pages (§2.3, §7.3).
//
// Entries are packed atomic words (see packPTE): mutators are
// serialized by the owning System's lock, while readers take no locks.
// The runtime never remaps or allocates while a phase runs, so a
// phase's translations all see one mapping; the atomic words and the
// atomic.Pointer swap of a grown entry slice only keep a racing reader
// outside the runtime well-defined.
type PageTable struct {
	pages atomic.Pointer[[]atomic.Uint64] // indexed by vaddr >> 12
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	pt := &PageTable{}
	empty := make([]atomic.Uint64, 0)
	pt.pages.Store(&empty)
	return pt
}

const (
	smallShift = 12
	hugeShift  = 16 // log2(HugePage)
	// PagesPerHuge is the number of 4 KiB entries in one huge mapping.
	PagesPerHuge = 1 << (hugeShift - smallShift)
)

// slice returns the current entry array.
func (pt *PageTable) slice() []atomic.Uint64 { return *pt.pages.Load() }

func (pt *PageTable) grow(vpage uint64) {
	old := pt.slice()
	if need := int(vpage) + 1; need > len(old) {
		// Grow geometrically from the current length, not from the
		// requested index: doubling `need` would over-allocate 2x on
		// every first touch of a high page.
		newLen := 2 * len(old)
		if newLen < need {
			newLen = need
		}
		grown := make([]atomic.Uint64, newLen)
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		pt.pages.Store(&grown)
	}
}

// word returns the raw entry of vpage (0 for out-of-range).
func (pt *PageTable) word(vpage uint64) uint64 {
	p := pt.slice()
	if int(vpage) >= len(p) {
		return 0
	}
	return p[vpage].Load()
}

// set commits a new mapping for vpage. Callers are serialized by the
// System's lock.
func (pt *PageTable) set(vpage uint64, pi PageInfo) {
	pt.slice()[vpage].Store(packPTE(pi))
}

// Map establishes a mapping for [base, base+size) on the given tier. base
// and size must be 4 KiB aligned; when huge is true they must be 2 MiB
// aligned. Remapping an already-mapped page is an error (use Remap).
func (pt *PageTable) Map(base, size uint64, t Tier, huge bool) error {
	align := uint64(SmallPage)
	if huge {
		align = HugePage
	}
	if base%align != 0 || size%align != 0 {
		return fmt.Errorf("memsim: Map [%#x,+%#x) not %d-aligned", base, size, align)
	}
	first, n := base>>smallShift, size>>smallShift
	pt.grow(first + n - 1)
	for i := first; i < first+n; i++ {
		if pt.word(i)&pteMapped != 0 {
			return fmt.Errorf("memsim: Map would double-map page %#x", i<<smallShift)
		}
	}
	for i := first; i < first+n; i++ {
		pt.set(i, PageInfo{Mapped: true, Huge: huge, Tier: t})
	}
	return nil
}

// Unmap removes the mapping of [base, base+size). It is an error if any
// page in the range is unmapped, or if the range splits a huge mapping.
func (pt *PageTable) Unmap(base, size uint64) error {
	if base%SmallPage != 0 || size%SmallPage != 0 {
		return fmt.Errorf("memsim: Unmap [%#x,+%#x) not page-aligned", base, size)
	}
	first, n := base>>smallShift, size>>smallShift
	for i := first; i < first+n; i++ {
		pi, err := pt.lookup(i)
		if err != nil {
			return err
		}
		if pi.Huge && (i%PagesPerHuge == 0 && i+PagesPerHuge > first+n ||
			i == first && i%PagesPerHuge != 0) {
			return fmt.Errorf("memsim: Unmap [%#x,+%#x) splits a huge page", base, size)
		}
	}
	for i := first; i < first+n; i++ {
		pt.set(i, PageInfo{})
	}
	return nil
}

func (pt *PageTable) lookup(vpage uint64) (PageInfo, error) {
	w := pt.word(vpage)
	if w&pteMapped == 0 {
		return PageInfo{}, fmt.Errorf("memsim: fault at unmapped page %#x", vpage<<smallShift)
	}
	return unpackPTE(w), nil
}

// Translate returns the mapping of the page containing addr. It panics on
// an unmapped address: a simulated segfault, which always indicates a bug
// in the runtime or a kernel accessing unregistered memory.
func (pt *PageTable) Translate(addr uint64) PageInfo {
	w := pt.word(addr >> smallShift)
	if w&pteMapped == 0 {
		panic(fmt.Sprintf("memsim: simulated segfault at %#x", addr))
	}
	return unpackPTE(w)
}

// TierOf returns the tier of the page containing addr and whether the page
// is mapped at all; unlike Translate it does not panic on an unmapped
// page, which is what the writeback path (evictions of freed lines)
// wants.
func (pt *PageTable) TierOf(addr uint64) (Tier, bool) {
	w := pt.word(addr >> smallShift)
	if w&pteMapped == 0 {
		return 0, false
	}
	return unpackPTE(w).Tier, true
}

// Retier moves every page of [base, base+size) to tier t, preserving the
// page granularity (huge mappings stay huge). This models the ATMem remap
// step: the virtual addresses are untouched, only the physical backing
// changes (§4.4).
func (pt *PageTable) Retier(base, size uint64, t Tier) error {
	if base%SmallPage != 0 || size%SmallPage != 0 {
		return fmt.Errorf("memsim: Retier [%#x,+%#x) not page-aligned", base, size)
	}
	first, n := base>>smallShift, size>>smallShift
	for i := first; i < first+n; i++ {
		if _, err := pt.lookup(i); err != nil {
			return err
		}
	}
	for i := first; i < first+n; i++ {
		pi := unpackPTE(pt.word(i))
		pi.Tier = t
		pt.set(i, pi)
	}
	return nil
}

// Splinter converts every huge mapping intersecting [base, base+size) into
// 4 KiB mappings (whole huge pages are split, as the kernel does when
// migrate_pages touches part of a THP). This models the mbind engine's
// side effect that inflates post-migration TLB misses (§2.3, Table 4).
func (pt *PageTable) Splinter(base, size uint64) error {
	if size == 0 {
		return nil
	}
	first := base >> smallShift
	last := (base + size - 1) >> smallShift
	// Expand to huge-page boundaries of any huge mapping touched.
	firstHuge := first / PagesPerHuge * PagesPerHuge
	lastHuge := (last/PagesPerHuge + 1) * PagesPerHuge
	p := pt.slice()
	for i := firstHuge; i < lastHuge && int(i) < len(p); i++ {
		w := p[i].Load()
		if w&pteMapped != 0 && w&pteHuge != 0 {
			pi := unpackPTE(w)
			pi.Huge = false
			pt.set(i, pi)
		}
	}
	return nil
}

// HugePages returns how many of the mapped pages in [base, base+size) are
// part of huge mappings, and the total mapped page count.
func (pt *PageTable) HugePages(base, size uint64) (huge, total int) {
	first, n := base>>smallShift, (size+SmallPage-1)>>smallShift
	p := pt.slice()
	for i := first; i < first+n && int(i) < len(p); i++ {
		w := p[i].Load()
		if w&pteMapped == 0 {
			continue
		}
		total++
		if w&pteHuge != 0 {
			huge++
		}
	}
	return huge, total
}
