package memsim

import (
	"testing"
	"testing/quick"
)

// Property: AllocPrefer always maps the full requested range, never
// exceeds either tier's capacity, and fills the fast tier before
// spilling.
func TestAllocPreferProperty(t *testing.T) {
	check := func(sizes []uint16) bool {
		p := testParams()
		p.Tiers[TierFast].CapacityBytes = 2 * MiB
		p.Tiers[TierSlow].CapacityBytes = 64 * MiB
		s := NewSystem(p)
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		for _, raw := range sizes {
			size := uint64(raw)%(512*KiB) + 1
			base, err := s.AllocPrefer(size)
			if err != nil {
				// Only acceptable once the slow tier is exhausted,
				// which these sizes cannot reach.
				return false
			}
			on := s.BytesOnTier(base, size)
			if on[TierFast]+on[TierSlow] != size {
				return false // unmapped hole inside the object
			}
			// If any byte spilled to slow, fast must be nearly full.
			if on[TierSlow] > 0 && s.FreeCapacity(TierFast) > HugePage {
				return false
			}
		}
		return s.Used(TierFast) <= p.Tiers[TierFast].CapacityBytes &&
			s.Used(TierSlow) <= p.Tiers[TierSlow].CapacityBytes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAllocPreferExactFit(t *testing.T) {
	p := testParams()
	p.Tiers[TierFast].CapacityBytes = HugePage
	s := NewSystem(p)
	base, err := s.AllocPrefer(HugePage)
	if err != nil {
		t.Fatal(err)
	}
	if tier, _ := s.TierOf(base); tier != TierFast {
		t.Error("exact-fit allocation not on fast tier")
	}
	if s.FreeCapacity(TierFast) != 0 {
		t.Errorf("free capacity %d after exact fit", s.FreeCapacity(TierFast))
	}
	// The next allocation goes entirely slow.
	b2, err := s.AllocPrefer(SmallPage)
	if err != nil {
		t.Fatal(err)
	}
	if tier, _ := s.TierOf(b2); tier != TierSlow {
		t.Error("allocation after exhaustion not on slow tier")
	}
}

func TestAllocPreferSlowExhaustion(t *testing.T) {
	p := testParams()
	p.Tiers[TierFast].CapacityBytes = HugePage
	p.Tiers[TierSlow].CapacityBytes = HugePage
	s := NewSystem(p)
	if _, err := s.AllocPrefer(4 * HugePage); err == nil {
		t.Error("allocation exceeding both tiers accepted")
	}
}

func TestAllocPreferSpillIsSmallPaged(t *testing.T) {
	p := testParams()
	p.Tiers[TierFast].CapacityBytes = 3 * HugePage
	s := NewSystem(p)
	// Consume most of the fast tier so the next big allocation splits.
	if _, err := s.AllocPrefer(2 * HugePage); err != nil {
		t.Fatal(err)
	}
	base, err := s.AllocPrefer(4 * HugePage)
	if err != nil {
		t.Fatal(err)
	}
	// A split allocation cannot promise huge pages.
	if s.PageTable().Translate(base).Huge {
		t.Error("split preferred allocation kept huge pages at its head")
	}
	on := s.BytesOnTier(base, 4*HugePage)
	if on[TierFast] != HugePage || on[TierSlow] != 3*HugePage {
		t.Errorf("split %v, want 1/3 huge pages", on)
	}
}

// A spilled object of at least one huge page whose size is not a
// huge-page multiple is mapped only to its 4 KiB rounding; Free must
// unmap exactly that, not walk into the unmapped huge-page tail, and a
// free that does reach an unmapped page must change nothing.
func TestFreeSpilledObject(t *testing.T) {
	p := testParams()
	p.Tiers[TierFast].CapacityBytes = 3 * HugePage
	s := NewSystem(p)
	whole, err := s.AllocPrefer(2*HugePage - 100)
	if err != nil {
		t.Fatal(err)
	}
	const size = 2*HugePage + 100
	spilled, err := s.AllocPrefer(size)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Extent(whole, 2*HugePage-100), uint64(2*HugePage); got != want {
		t.Errorf("whole-placed extent = %d, want %d", got, want)
	}
	if got, want := s.Extent(spilled, size), RoundUp(size, SmallPage); got != want {
		t.Errorf("spilled extent = %d, want %d", got, want)
	}
	// A free that reaches past the mapping fails before any ledger moves.
	if err := s.Free(spilled, 3*HugePage); err == nil {
		t.Fatal("free past the spilled mapping accepted")
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct{ base, size uint64 }{{spilled, size}, {whole, 2*HugePage - 100}} {
		if err := s.Free(o.base, o.size); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Used(TierFast) != 0 || s.Used(TierSlow) != 0 {
		t.Errorf("used after freeing everything: fast %d, slow %d", s.Used(TierFast), s.Used(TierSlow))
	}
}
