package atmem

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"atmem/internal/faultinject"
	"atmem/internal/health"
	"atmem/internal/memsim"
)

// brokerFixture builds a broker over a shrunken fast tier plus one
// attached tenant runtime with the usual hot/cold array pair.
func brokerTenantRuntime(t *testing.T, tn *Tenant, extra ...Option) (*Runtime, *Array[uint64], *Array[uint64]) {
	t.Helper()
	opts := append([]Option{
		WithSamplePeriod(64),
		WithTenant(tn),
	}, extra...)
	rt, err := New(NVMDRAM(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewArray[uint64](rt, tn.Name()+".hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	// 256 KiB hot + 4 MiB cold: enough combined demand that a floor-sized
	// share clips the plan, keeping the tenant's grant signal binding.
	cold, err := NewArray[uint64](rt, tn.Name()+".cold", 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(hot, 7)
	fillDeterministic(cold, 11)
	return rt, hot, cold
}

// concurrentRound runs one governed epoch on every runtime at once —
// the broker serving shape: kernels interleave freely on the shared
// system while the placement lock serializes migrations.
func concurrentRound(t *testing.T, name string, rts []*Runtime, arrays [][]*Array[uint64]) {
	t.Helper()
	errs := make([]error, len(rts))
	var wg sync.WaitGroup
	for i, rt := range rts {
		wg.Add(1)
		go func(i int, rt *Runtime) {
			defer wg.Done()
			_, errs[i] = rt.RunEpoch(name, func() { scanPhase(rt, name, arrays[i]...) })
		}(i, rt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("round %s tenant %d: %v", name, i, err)
		}
	}
}

// TestBrokerTwoTenantsConcurrentEpochs drives two burstable tenants
// through concurrent governed epochs on one shared system: both must
// reach fast residency inside their granted shares, the arbiter must
// grow a binding share from the pool, and the shared ledgers must stay
// consistent under the race detector.
func TestBrokerTwoTenantsConcurrentEpochs(t *testing.T) {
	bk := NewBroker(govTestbed(16<<20), BrokerConfig{QuantumBytes: 1 << 20})
	ta, err := bk.Admit(TenantSpec{Name: "a", Class: ClassBurstable, FloorBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := bk.Admit(TenantSpec{Name: "b", Class: ClassBurstable, FloorBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rtA, hotA, coldA := brokerTenantRuntime(t, ta)
	rtB, hotB, coldB := brokerTenantRuntime(t, tb)

	granted := false
	for round := 0; round < 8; round++ {
		concurrentRound(t, "serve", []*Runtime{rtA, rtB},
			[][]*Array[uint64]{{hotA, coldA}, {hotB, coldB}})
		// Each tenant's fast footprint stays inside its own share, not
		// just the sum inside capacity: the engine rounds a promoted
		// clipped tail out to whole pages, which must not overdraw.
		for _, tn := range []*Tenant{ta, tb} {
			if fast, budget := bk.System().TenantUsage(tn.ID()).FastBytes, tn.Budget(); fast > budget {
				t.Errorf("round %d: tenant %s holds %d fast bytes over its %d budget", round, tn.Name(), fast, budget)
			}
		}
		if rep := bk.Rebalance(); rep.GrantedTo != "" {
			granted = true
		}
	}
	if !granted {
		t.Error("arbiter never granted a share despite binding budgets")
	}
	sys := bk.System()
	var sumFast uint64
	for _, tn := range []*Tenant{ta, tb} {
		u := sys.TenantUsage(tn.ID())
		if u.FastBytes == 0 {
			t.Errorf("tenant %s never reached the fast tier", tn.Name())
		}
		if tn.Share() < tn.Spec().FloorBytes {
			t.Errorf("tenant %s share %d fell below its floor", tn.Name(), tn.Share())
		}
		sumFast += u.FastBytes
	}
	if cap := bk.Capacity(); sumFast > cap {
		t.Errorf("tenants hold %d fast bytes over the %d capacity", sumFast, cap)
	}
	assertDataIntact(t, "tenant a hot", hotA, 7)
	assertDataIntact(t, "tenant b hot", hotB, 7)
	assertDataIntact(t, "tenant a cold", coldA, 11)
	assertDataIntact(t, "tenant b cold", coldB, 11)
	if err := sys.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestTenantFailedConstructionLeavesSystemUntouched is the regression
// for a tenant runtime whose construction fails after its options name
// a fault schedule: the schedule must not be left hooked into the
// broker's shared system, where it would fire on every co-tenant.
func TestTenantFailedConstructionLeavesSystemUntouched(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	sched, err := faultinject.ParseSchedule("alloc:p=1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		bad  Option
	}{
		{"health-policy", WithHealthPolicy(health.Policy{GranuleBytes: 3})},
		{"governor-config", WithGovernor(GovernorOptions{HighWatermark: 2})},
		{"debug-bind", WithDebugAddr(busy.Addr().String())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bk := NewBroker(govTestbed(16<<20), BrokerConfig{})
			ta, err := bk.Admit(TenantSpec{Name: "a", Class: ClassBurstable, FloorBytes: 2 << 20})
			if err != nil {
				t.Fatal(err)
			}
			tb, err := bk.Admit(TenantSpec{Name: "b", Class: ClassBurstable, FloorBytes: 2 << 20})
			if err != nil {
				t.Fatal(err)
			}
			rtA, _, _ := brokerTenantRuntime(t, ta)
			if _, err := New(NVMDRAM(), WithTenant(tb), WithFaultSchedule(sched), tc.bad); err == nil {
				t.Fatal("invalid tenant runtime constructed")
			}
			if _, err := rtA.Malloc("after", 64<<10); err != nil {
				t.Fatalf("co-tenant Malloc after failed construction: %v", err)
			}
		})
	}
}

// TestTenantCloseReleasesShare is the departure regression: Close on a
// tenant runtime after overlapped epochs settles the pending clock
// charge, frees every object (so the sub-ledger and the shared tiers
// return to empty), and departs — at which point a floor that did not
// fit beside the departed tenant's is admitted.
func TestTenantCloseReleasesShare(t *testing.T) {
	bk := NewBroker(govTestbed(8<<20), BrokerConfig{})
	ta, err := bk.Admit(TenantSpec{Name: "a", Class: ClassGuaranteed, FloorBytes: 6 << 20})
	if err != nil {
		t.Fatal(err)
	}
	specB := TenantSpec{Name: "b", Class: ClassGuaranteed, FloorBytes: 4 << 20}
	if _, err := bk.Admit(specB); !errors.Is(err, ErrAdmission) {
		t.Fatalf("tenant b admitted while a's floor holds 6 of 8 MiB: err = %v", err)
	}

	rt, hot, cold := brokerTenantRuntime(t, ta)
	ctx := context.Background()
	for _, name := range []string{"e1", "e2", "e3"} {
		if _, err := rt.RunEpochAsync(ctx, name, func() { scanPhase(rt, name, hot, cold) }); err != nil {
			t.Fatalf("epoch %s: %v", name, err)
		}
	}
	// Close while epoch 3's clock charge is still pending: the free must
	// leave no staging reservation behind.
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sys := bk.System()
	if u := sys.TenantUsage(ta.ID()); u.FastBytes != 0 {
		t.Errorf("departed tenant still owns %d fast bytes", u.FastBytes)
	}
	if used := sys.Used(memsim.TierFast); used != 0 {
		t.Errorf("fast tier still holds %d bytes after departure", used)
	}
	if _, res := sys.TierUsage(memsim.TierFast); res != 0 {
		t.Errorf("departure leaked %d reserved staging bytes", res)
	}
	if _, err := bk.Admit(specB); err != nil {
		t.Fatalf("tenant b not admitted after a departed: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := sys.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestBrokerQuarantineStormIsolation pins the fault-domain contract: a
// persistent-fault storm against one tenant's hot range condemns and
// quarantines pages charged to that tenant's sub-ledger only — the
// victim's effective budget shrinks while the bystander's budget,
// residency, and data stay untouched.
func TestBrokerQuarantineStormIsolation(t *testing.T) {
	bk := NewBroker(govTestbed(16<<20), BrokerConfig{QuantumBytes: 1 << 20})
	tv, err := bk.Admit(TenantSpec{Name: "victim", Class: ClassBurstable, FloorBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := bk.Admit(TenantSpec{Name: "bystander", Class: ClassBurstable, FloorBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	hp := WithHealthPolicy(health.Policy{Window: 4, PersistentThreshold: 2, BackoffEpochs: 1, MaxBackoff: 2})
	rtV, hotV, coldV := brokerTenantRuntime(t, tv, hp)
	rtB, hotB, coldB := brokerTenantRuntime(t, tb, hp)

	// The storm covers both of the victim's objects: under a clipped
	// budget the analyzer may promote either first, and every promotion
	// attempt must feed the scoreboard.
	rtV.ArmFaults(
		faultinject.Fault{
			Kind: faultinject.Persistent, Op: faultinject.OpRetier,
			Base: hotV.Object().Base(), Size: hotV.Object().Size(),
		},
		faultinject.Fault{
			Kind: faultinject.Persistent, Op: faultinject.OpRetier,
			Base: coldV.Object().Base(), Size: coldV.Object().Size(),
		},
	)
	for round := 0; round < 8 && rtV.HealthStats().Quarantined == 0; round++ {
		concurrentRound(t, "storm", []*Runtime{rtV, rtB},
			[][]*Array[uint64]{{hotV, coldV}, {hotB, coldB}})
		bk.Rebalance()
	}
	sys := bk.System()
	uv, ub := sys.TenantUsage(tv.ID()), sys.TenantUsage(tb.ID())
	if uv.QuarantinedBytes == 0 {
		t.Fatalf("storm never quarantined victim pages: %+v", rtV.HealthStats())
	}
	if ub.QuarantinedBytes != 0 {
		t.Errorf("bystander charged %d quarantined bytes for the victim's storm", ub.QuarantinedBytes)
	}
	var want uint64
	if uv.QuarantinedBytes < tv.Share() {
		want = tv.Share() - uv.QuarantinedBytes
	}
	if got := tv.Budget(); got != want {
		t.Errorf("victim budget %d; want share %d − debit %d", got, tv.Share(), uv.QuarantinedBytes)
	}
	if tb.Budget() != tb.Share() {
		t.Errorf("bystander budget %d debited below its %d share", tb.Budget(), tb.Share())
	}

	// Storm over: the bystander must still be serving from fast memory,
	// with both tenants' data bit-identical.
	rtV.DisarmFaults()
	concurrentRound(t, "after", []*Runtime{rtV, rtB},
		[][]*Array[uint64]{{hotV, coldV}, {hotB, coldB}})
	if ub := sys.TenantUsage(tb.ID()); ub.FastBytes == 0 {
		t.Error("bystander lost all fast residency to the victim's storm")
	}
	assertDataIntact(t, "victim hot", hotV, 7)
	assertDataIntact(t, "bystander hot", hotB, 7)
	assertDataIntact(t, "victim cold", coldV, 11)
	assertDataIntact(t, "bystander cold", coldB, 11)
	if err := sys.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestTenantBudgetDrainsWhenShed pins the SLO-aware degradation path
// end-to-end: the broker breaker opens under aggregate pressure, sheds
// the best-effort tenant (share and budget to zero, Shedding() true),
// and the tenant's own governed epochs then drain its fast residency
// back into the pool instead of squatting on a share it no longer has.
func TestTenantBudgetDrainsWhenShed(t *testing.T) {
	bk := NewBroker(govTestbed(8<<20), BrokerConfig{
		HighWatermark: 0.40, LowWatermark: 0.20, QuantumBytes: 1 << 20,
	})
	tn, err := bk.Admit(TenantSpec{Name: "be", Class: ClassBestEffort, BurstBytes: 6 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, hot, cold := brokerTenantRuntime(t, tn)
	// Let the arbiter feed the tenant until its footprint crosses the
	// broker's (tightened) global watermark, opening the breaker and
	// shedding it; its runtime must then drain its own residency.
	shedAt := -1
	for round := 0; round < 12; round++ {
		concurrentRound(t, "grow", []*Runtime{rt}, [][]*Array[uint64]{{hot, cold}})
		bk.Rebalance()
		if tn.IsShed() {
			shedAt = round
			break
		}
	}
	if shedAt < 0 {
		t.Fatalf("broker never shed the best-effort tenant (share %d, pressure never crossed?)", tn.Share())
	}
	if !bk.Shedding() {
		t.Error("Shedding() false while the shed list is non-empty")
	}
	if tn.Share() != 0 || tn.Budget() != 0 {
		t.Errorf("shed tenant keeps share %d budget %d", tn.Share(), tn.Budget())
	}
	// Shed tenant epochs drain residency (budget 1 → pressure demotions).
	for round := 0; round < 4 && bk.System().TenantUsage(tn.ID()).FastBytes > 0; round++ {
		concurrentRound(t, "drain", []*Runtime{rt}, [][]*Array[uint64]{{hot, cold}})
		bk.Rebalance()
	}
	if u := bk.System().TenantUsage(tn.ID()); u.FastBytes != 0 {
		t.Errorf("shed tenant still holds %d fast bytes after drain epochs", u.FastBytes)
	}
	assertDataIntact(t, "shed tenant hot", hot, 7)
}
