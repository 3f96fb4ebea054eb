package broker

import (
	"errors"
	"testing"

	"atmem/internal/governor"
	"atmem/internal/memsim"
)

const mib = 1 << 20

// testSystem builds a small two-tier system: 16 MiB fast, 64 MiB slow.
func testSystem(t *testing.T) *memsim.System {
	t.Helper()
	p := memsim.NVMDRAMParams()
	p.Tiers[memsim.TierFast].CapacityBytes = 16 * mib
	p.Tiers[memsim.TierSlow].CapacityBytes = 64 * mib
	return memsim.NewSystem(p)
}

func spec(name string, class QoSClass, floor, burst uint64) TenantSpec {
	return TenantSpec{Name: name, Class: class, FloorBytes: floor, BurstBytes: burst}
}

// TestAdmitExactlyFullFloor: admission at exactly `capacity −
// quarantined` worth of floors succeeds; one more byte is rejected
// with ErrAdmission.
func TestAdmitExactlyFullFloor(t *testing.T) {
	b := New(testSystem(t), Config{})
	if _, err := b.Admit(spec("a", ClassGuaranteed, 10*mib, 0)); err != nil {
		t.Fatal(err)
	}
	// Exactly full: 10 + 6 == 16 MiB.
	tb, err := b.Admit(spec("b", ClassGuaranteed, 6*mib, 0))
	if err != nil {
		t.Fatalf("admit at exactly-full floor: %v", err)
	}
	if got := tb.Share(); got != 6*mib {
		t.Errorf("share = %d, want floor %d", got, 6*mib)
	}
	// One more byte of floor must be rejected, wrapping the sentinel.
	_, err = b.Admit(spec("c", ClassGuaranteed, 1, 0))
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("oversubscribing admit: err = %v, want ErrAdmission", err)
	}
	// Best-effort tenants carry no floor and still fit.
	if _, err := b.Admit(spec("d", ClassBestEffort, 0, 4*mib)); err != nil {
		t.Fatalf("best-effort admit at full floors: %v", err)
	}
}

// TestAdmissionShrinksUnderQuarantine: live quarantine growth shrinks
// what admission may promise — a floor that fit before RetirePages is
// rejected after.
func TestAdmissionShrinksUnderQuarantine(t *testing.T) {
	sys := testSystem(t)
	b := New(sys, Config{})

	// Retire 4 MiB of pages into the quarantine ledger (retirement
	// requires the range evacuated off the fast tier first).
	addr, err := sys.Alloc(4*mib, memsim.TierSlow)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RetirePages(addr, 4*mib); err != nil {
		t.Fatal(err)
	}

	// 16 − 4 = 12 MiB promisable: 12 MiB of floors fit, 13 do not.
	if _, err := b.Admit(spec("a", ClassGuaranteed, 12*mib, 0)); err != nil {
		t.Fatalf("admit within shrunk capacity: %v", err)
	}
	_, err = b.Admit(spec("b", ClassGuaranteed, 1*mib, 0))
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("admit over shrunk capacity: err = %v, want ErrAdmission", err)
	}
}

// TestBudgetChargesOwnQuarantine: a tenant's quarantine debit shrinks
// only its own budget; a sibling's budget is untouched.
func TestBudgetChargesOwnQuarantine(t *testing.T) {
	sys := testSystem(t)
	b := New(sys, Config{})
	ta, err := b.Admit(spec("victim", ClassGuaranteed, 6*mib, 0))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.Admit(spec("bystander", ClassGuaranteed, 6*mib, 0))
	if err != nil {
		t.Fatal(err)
	}

	addr, err := sys.Alloc(4*mib, memsim.TierSlow)
	if err != nil {
		t.Fatal(err)
	}
	sys.AdoptRange(ta.ID(), addr, 4*mib)
	if err := sys.RetirePages(addr, 2*mib); err != nil {
		t.Fatal(err)
	}

	if got := ta.Budget(); got != 4*mib {
		t.Errorf("victim budget = %d, want %d (floor 6 − 2 quarantined)", got, 4*mib)
	}
	if got := tb.Budget(); got != 6*mib {
		t.Errorf("bystander budget = %d, want full floor %d", got, 6*mib)
	}
}

// TestArbiterGrantsHottestMarginal: the epoch grant goes to the tenant
// whose clipped chunk is hottest, and reclaims from the coldest
// burstable donor once the free pool is exhausted.
func TestArbiterGrantsHottestMarginal(t *testing.T) {
	b := New(testSystem(t), Config{QuantumBytes: 2 * mib})
	hot, err := b.Admit(spec("hot", ClassBurstable, 2*mib, 12*mib))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := b.Admit(spec("warm", ClassBurstable, 2*mib, 12*mib))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := b.Admit(spec("cold", ClassBurstable, 2*mib, 12*mib))
	if err != nil {
		t.Fatal(err)
	}

	hot.Report(Signal{MarginalDensity: 9.0, ColdestDensity: 5.0})
	warm.Report(Signal{MarginalDensity: 3.0, ColdestDensity: 2.0})
	cold.Report(Signal{MarginalDensity: 0, ColdestDensity: 0.1})

	rep := b.Rebalance()
	if rep.GrantedTo != "hot" || rep.GrantedBytes != 2*mib {
		t.Fatalf("grant = %q/%d, want hot/%d", rep.GrantedTo, rep.GrantedBytes, 2*mib)
	}
	if rep.ReclaimedFrom != "" {
		t.Fatalf("reclaimed from %q with a free pool available", rep.ReclaimedFrom)
	}
	if got := hot.Share(); got != 4*mib {
		t.Errorf("hot share = %d, want %d", got, 4*mib)
	}

	// Exhaust the free pool: grow cold to cover the remaining capacity,
	// then the next grant must reclaim from it (the only donor whose
	// budget is not binding).
	b.mu.Lock()
	cold.share.Store(10 * mib) // 4 + 2 + 10 = 16 MiB: pool empty
	b.mu.Unlock()
	rep = b.Rebalance()
	if rep.GrantedTo != "hot" || rep.ReclaimedFrom != "cold" {
		t.Fatalf("grant = %q reclaimed from %q, want hot from cold", rep.GrantedTo, rep.ReclaimedFrom)
	}
	if got := cold.Share(); got != 8*mib {
		t.Errorf("cold share = %d, want %d after reclaim", got, 8*mib)
	}
	_ = warm
}

// TestGuaranteedNeverDonates: a guaranteed tenant's share is never
// reclaimed, and a burstable tenant is never taken below its floor.
func TestGuaranteedNeverDonates(t *testing.T) {
	b := New(testSystem(t), Config{QuantumBytes: 4 * mib})
	g, err := b.Admit(spec("g", ClassGuaranteed, 8*mib, 0))
	if err != nil {
		t.Fatal(err)
	}
	bu, err := b.Admit(spec("bu", ClassBurstable, 4*mib, 16*mib))
	if err != nil {
		t.Fatal(err)
	}
	hungry, err := b.Admit(spec("hungry", ClassBurstable, 2*mib, 16*mib))
	if err != nil {
		t.Fatal(err)
	}
	// Pool: 16 − (8+4+2) = 2 MiB. Everyone cold except hungry.
	g.Report(Signal{MarginalDensity: 0, ColdestDensity: 0.01})
	bu.Report(Signal{MarginalDensity: 0, ColdestDensity: 0.02})
	hungry.Report(Signal{MarginalDensity: 10})

	rep := b.Rebalance()
	if rep.GrantedTo != "hungry" {
		t.Fatalf("granted to %q, want hungry", rep.GrantedTo)
	}
	if got := g.Share(); got != 8*mib {
		t.Errorf("guaranteed share = %d, want untouched %d", got, 8*mib)
	}
	// bu was at its floor, so only the 2 MiB pool could be granted.
	if got := bu.Share(); got != 4*mib {
		t.Errorf("burstable-at-floor share = %d, want %d", got, 4*mib)
	}
	if rep.GrantedBytes != 2*mib {
		t.Errorf("granted %d, want pool-limited %d", rep.GrantedBytes, 2*mib)
	}
}

// TestShedLadderAndRestore drives the broker breaker through a
// pressure storm: consecutive degraded epochs open it and shed
// best-effort tenants in shed-priority order; once pressure recedes
// and the cooldown elapses, the half-open probe restores them and the
// breaker closes.
func TestShedLadderAndRestore(t *testing.T) {
	sys := testSystem(t)
	cfg := Config{
		HighWatermark: 0.50, LowWatermark: 0.30,
		Breaker: governor.Config{BreakerThreshold: 2, BreakerCooldown: 1},
	}
	b := New(sys, cfg)
	g, err := b.Admit(spec("g", ClassGuaranteed, 4*mib, 0))
	if err != nil {
		t.Fatal(err)
	}
	be1, err := b.Admit(TenantSpec{Name: "be1", Class: ClassBestEffort, BurstBytes: 8 * mib, ShedPriority: 1})
	if err != nil {
		t.Fatal(err)
	}
	be2, err := b.Admit(TenantSpec{Name: "be2", Class: ClassBestEffort, BurstBytes: 8 * mib, ShedPriority: 2})
	if err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	be1.share.Store(4 * mib)
	be2.share.Store(4 * mib)
	b.mu.Unlock()

	// Storm: 12 of 16 MiB fast mapped → pressure 0.75 > 0.50.
	addr, err := sys.Alloc(12*mib, memsim.TierFast)
	if err != nil {
		t.Fatal(err)
	}

	r1 := b.Rebalance()
	if len(r1.Shed) != 0 || b.Shedding() {
		t.Fatalf("shed after one degraded epoch: %v", r1.Shed)
	}
	r2 := b.Rebalance()
	if b.breakerState() != governor.StateOpen {
		t.Fatalf("breaker %v after threshold, want open", b.breakerState())
	}
	// Target: drain from 12 MiB to 0.30·16 = 4.8 MiB → 7.2 MiB to
	// reclaim; both 4 MiB rungs shed, lowest shed-priority first.
	if len(r2.Shed) != 2 || r2.Shed[0] != "be1" || r2.Shed[1] != "be2" {
		t.Fatalf("shed = %v, want [be1 be2]", r2.Shed)
	}
	if !b.Shedding() || !be1.IsShed() || !be2.IsShed() || g.IsShed() {
		t.Fatal("shed flags wrong after ladder")
	}
	if be1.Share() != 0 || be2.Share() != 0 {
		t.Fatal("shed tenants keep nonzero shares")
	}

	// Pressure persists one cooldown epoch (skip), then recedes.
	b.Rebalance()
	if err := sys.Free(addr, 12*mib); err != nil {
		t.Fatal(err)
	}
	// Half-open probe restores one rung (most recently shed first).
	r4 := b.Rebalance()
	if len(r4.Restored) == 0 {
		t.Fatalf("probe restored nothing: %+v", r4)
	}
	if b.Shedding() {
		t.Fatal("still shedding after probe succeeded with receded pressure")
	}
	if be1.IsShed() || be2.IsShed() {
		t.Fatal("tenants remain shed after restore")
	}
	if b.breakerState() != governor.StateClosed {
		t.Fatalf("breaker %v after successful probe, want closed", b.breakerState())
	}
}

// breakerState exposes the broker breaker for tests.
func (b *Broker) breakerState() governor.State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.breaker.State()
}

// TestDepartReturnsShareToPool: departure frees the tenant's share for
// the arbiter's next grant.
func TestDepartReturnsShareToPool(t *testing.T) {
	b := New(testSystem(t), Config{QuantumBytes: 8 * mib})
	a, err := b.Admit(spec("a", ClassBurstable, 8*mib, 16*mib))
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Admit(spec("c", ClassBurstable, 8*mib, 16*mib))
	if err != nil {
		t.Fatal(err)
	}
	c.Report(Signal{MarginalDensity: 5})
	// Pool is empty (8+8=16) and a reported nothing → no donor.
	rep := b.Rebalance()
	if rep.GrantedBytes != 0 {
		t.Fatalf("granted %d from an empty pool without donors", rep.GrantedBytes)
	}
	a.Depart()
	rep = b.Rebalance()
	if rep.GrantedTo != "c" || rep.GrantedBytes != 8*mib {
		t.Fatalf("grant after departure = %q/%d, want c/%d", rep.GrantedTo, rep.GrantedBytes, 8*mib)
	}
}
