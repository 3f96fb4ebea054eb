package atmem

import (
	"testing"

	"atmem/internal/faultinject"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
)

// replayFixture builds a governed runtime wired to the given plan cache,
// with the hot/cold array pair the governor tests use. Allocation is
// deterministic, so two identically-built fixtures place their objects
// at identical addresses — the property that makes recorded absolute
// ranges replayable.
func replayFixture(t *testing.T, pc *PlanCache, opts ...Option) (*Runtime, *Array[uint64]) {
	t.Helper()
	return replayFixtureOn(t, NVMDRAM(), pc, opts...)
}

// replayFixtureOn is replayFixture on the given testbed.
func replayFixtureOn(t *testing.T, tb Testbed, pc *PlanCache, opts ...Option) (*Runtime, *Array[uint64]) {
	t.Helper()
	all := append([]Option{
		WithSamplePeriod(64),
		WithPlanCache(pc),
	}, opts...)
	rt, err := New(tb, all...)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArray[uint64](rt, "cold", 256<<10); err != nil {
		t.Fatal(err)
	}
	fillDeterministic(hot, 7)
	return rt, hot
}

// tierLayout snapshots every registered object's per-tier byte split —
// the ground truth a replay must reproduce bit for bit.
func tierLayout(rt *Runtime) map[string][memsim.NumTiers]uint64 {
	out := make(map[string][memsim.NumTiers]uint64)
	for _, o := range rt.Objects() {
		out[o.Name()] = rt.System().BytesOnTier(o.Base(), o.Size())
	}
	return out
}

// TestPlanRecordReplayEquivalence is the end-to-end contract: a governed
// run records its placement decisions, and a second identically-shaped
// run replays them — zero profiling, zero analysis — landing on the
// identical final tier layout and residency.
func TestPlanRecordReplayEquivalence(t *testing.T) {
	pc := NewPlanCache()
	const epochs = 3

	rec, hot := replayFixture(t, pc)
	sig := rec.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if v, err := rec.ArmPlan(sig); err != nil || v != LookupMiss {
		t.Fatalf("first ArmPlan = (%v, %v), want miss", v, err)
	}
	if rec.Replaying() {
		t.Fatal("recording run claims to be replaying")
	}
	for e := 0; e < epochs; e++ {
		rep := epochOn(t, rec, "e", hot)
		if rep.Replayed {
			t.Fatalf("recording epoch %d marked Replayed", e+1)
		}
	}
	plan, err := rec.FinishPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Epochs) != epochs {
		t.Fatalf("plan recorded %d epochs, want %d", len(plan.Epochs), epochs)
	}
	if len(plan.Epochs[0].Promotions) == 0 {
		t.Fatal("plan recorded no promotion in the first epoch")
	}
	wantLayout := tierLayout(rec)
	wantResident := rec.ResidentBytes()

	rep, hot2 := replayFixture(t, pc)
	sig2 := rep.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if sig2.Key() != sig.Key() {
		t.Fatalf("identical fixtures produced different signatures:\n%s\n%s", sig.Key(), sig2.Key())
	}
	if v, err := rep.ArmPlan(sig2); err != nil || v != LookupHit {
		t.Fatalf("second ArmPlan = (%v, %v), want hit", v, err)
	}
	if !rep.Replaying() {
		t.Fatal("replay run not in replay mode after a hit")
	}
	for e := 0; e < epochs; e++ {
		er, err := rep.RunEpoch("e", func() { scanPhase(rep, "e", hot2) })
		if err != nil {
			t.Fatal(err)
		}
		if !er.Replayed {
			t.Fatalf("replay epoch %d not marked Replayed", e+1)
		}
		if er.Samples != 0 {
			t.Fatalf("replay epoch %d attributed %d samples, want 0 (profiling off)", e+1, er.Samples)
		}
	}
	if got := rep.SampleCount(); got != 0 {
		t.Errorf("replay run captured %d profiler samples, want 0", got)
	}
	if _, err := rep.FinishPlan(); err != nil {
		t.Fatal(err)
	}

	if got := rep.ResidentBytes(); got != wantResident {
		t.Errorf("replay residency %d != recorded %d", got, wantResident)
	}
	gotLayout := tierLayout(rep)
	for name, want := range wantLayout {
		if gotLayout[name] != want {
			t.Errorf("object %q tier layout %v != recorded %v", name, gotLayout[name], want)
		}
	}
	assertDataIntact(t, "replayed hot", hot2, 7)
	if err := rep.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestAsyncRecordedPlanReplays pins that overlapped epochs record and
// replay like stop-the-world ones: a plan recorded under RunEpochAsync
// replays, through RunEpoch and through RunEpochAsync, to the recorded
// residency and tier layout, and a replayed overlapped epoch defers its
// clock charge like an online one.
func TestAsyncRecordedPlanReplays(t *testing.T) {
	pc := NewPlanCache()
	const epochs = 3

	rec, hot := replayFixture(t, pc)
	sig := rec.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if v, err := rec.ArmPlan(sig); err != nil || v != LookupMiss {
		t.Fatalf("first ArmPlan = (%v, %v), want miss", v, err)
	}
	for e := 0; e < epochs; e++ {
		if _, err := rec.RunEpochAsync(t.Context(), "e", func() { scanPhase(rec, "e", hot) }); err != nil {
			t.Fatal(err)
		}
	}
	rec.DrainAsync()
	plan, err := rec.FinishPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Epochs) != epochs || len(plan.Epochs[0].Promotions) == 0 {
		t.Fatalf("plan recorded %d epochs, %d first-epoch promotions", len(plan.Epochs), len(plan.Epochs[0].Promotions))
	}
	wantLayout, wantResident := tierLayout(rec), rec.ResidentBytes()

	for _, async := range []bool{false, true} {
		rt, hot2 := replayFixture(t, pc)
		if v, err := rt.ArmPlan(rt.BuildSignature("synthetic", 0x1234, []string{"scan"})); err != nil || v != LookupHit {
			t.Fatalf("async=%v: ArmPlan = (%v, %v), want hit", async, v, err)
		}
		for e := 0; e < epochs; e++ {
			body := func() { scanPhase(rt, "e", hot2) }
			var er EpochReport
			var err error
			if async {
				er, err = rt.RunEpochAsync(t.Context(), "e", body)
			} else {
				er, err = rt.RunEpoch("e", body)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !er.Replayed {
				t.Fatalf("async=%v: epoch %d not replayed", async, e+1)
			}
		}
		rt.DrainAsync()
		if _, err := rt.FinishPlan(); err != nil {
			t.Fatal(err)
		}
		if got := rt.ResidentBytes(); got != wantResident {
			t.Errorf("async=%v: replay residency %d != recorded %d", async, got, wantResident)
		}
		gotLayout := tierLayout(rt)
		for name, want := range wantLayout {
			if gotLayout[name] != want {
				t.Errorf("async=%v: object %q tier layout %v != recorded %v", async, name, gotLayout[name], want)
			}
		}
		if hid := rt.OverlapSeconds() > 0; hid != async {
			t.Errorf("async=%v: replay hid migration time: %v", async, hid)
		}
		assertDataIntact(t, "replayed hot", hot2, 7)
		if err := rt.System().CheckConsistency(); err != nil {
			t.Error(err)
		}
	}
}

// TestRecordEmptyEpochsKeepNumbering pins the epoch alignment of the
// schedule log: an epoch that commits nothing still records an empty
// schedule, so the replay commits the second epoch's moves in its
// second epoch, not its first.
func TestRecordEmptyEpochsKeepNumbering(t *testing.T) {
	pc := NewPlanCache()
	rec, hot := replayFixture(t, pc)
	sig := rec.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if _, err := rec.ArmPlan(sig); err != nil {
		t.Fatal(err)
	}
	if er, err := rec.RunEpoch("idle", func() {}); err != nil || er.Optimized {
		t.Fatalf("idle epoch = (%+v, %v), want no placement", er, err)
	}
	epochOn(t, rec, "e2", hot)
	plan, err := rec.FinishPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Epochs) != 2 {
		t.Fatalf("plan recorded %d epochs, want 2 (empty epochs count)", len(plan.Epochs))
	}
	if !plan.Epochs[0].Empty() || len(plan.Epochs[1].Promotions) == 0 {
		t.Fatalf("epochs = %+v, want an empty first epoch and promotions in the second", plan.Epochs)
	}
	if got := plan.Regions(); got != len(plan.Epochs[1].Demotions)+len(plan.Epochs[1].Promotions) {
		t.Errorf("Regions() = %d, want the second epoch's region count", got)
	}

	rep, hot2 := replayFixture(t, pc)
	if v, err := rep.ArmPlan(sig); err != nil || v != LookupHit {
		t.Fatalf("replay ArmPlan = (%v, %v), want hit", v, err)
	}
	first, err := rep.RunEpoch("idle", func() {})
	if err != nil {
		t.Fatal(err)
	}
	if first.Migration.BytesMoved != 0 {
		t.Errorf("replayed empty epoch moved %d bytes", first.Migration.BytesMoved)
	}
	second, err := rep.RunEpoch("e2", func() { scanPhase(rep, "e2", hot2) })
	if err != nil {
		t.Fatal(err)
	}
	if second.Migration.BytesMoved == 0 {
		t.Error("replayed second epoch moved nothing")
	}
	if _, err := rep.FinishPlan(); err != nil {
		t.Fatal(err)
	}
	if rep.ResidentBytes() != rec.ResidentBytes() {
		t.Errorf("replay residency %d != recorded %d", rep.ResidentBytes(), rec.ResidentBytes())
	}
}

// TestPlanCacheVerdicts pins the lookup classes: an exact signature
// hits, the same workload under any differing strict field is stale
// and returns no plan, and a different workload is a plain miss.
func TestPlanCacheVerdicts(t *testing.T) {
	c := NewPlanCache()
	sig := Signature{
		Graph:    "rmat20",
		GraphCRC: 0xdeadbeef,
		Kernels:  "bfs,pr",
		Threads:  8,
		Testbed:  "nvm-dram",
		Policy:   "policy=atmem",
		Governor: "hw=0.9",
	}

	if p, v := c.Lookup(sig); p != nil || v != LookupMiss {
		t.Fatalf("empty cache lookup = (%v, %v), want (nil, miss)", p, v)
	}

	c.Put(&CompiledPlan{Sig: sig, Epochs: []PlanEpoch{
		{Schedule: migrate.Schedule{Promotions: []migrate.Region{{Base: 0x1000, Size: 0x1000}}}},
	}})

	if p, v := c.Lookup(sig); p == nil || v != LookupHit {
		t.Fatalf("exact lookup = (%v, %v), want hit", p, v)
	}

	// Same workload (graph + kernels), any strict field differing: stale,
	// and no plan is returned — the caller must go online.
	stale := []Signature{sig, sig, sig, sig, sig}
	stale[0].GraphCRC++
	stale[1].Threads = 16
	stale[2].Policy = "policy=baseline"
	stale[3].Governor = "hw=0.8"
	stale[4].Health = "gen=1"
	for i, s := range stale {
		if p, v := c.Lookup(s); p != nil || v != LookupStale {
			t.Errorf("stale case %d: lookup = (%v, %v), want (nil, stale)", i, p, v)
		}
	}

	// A different workload entirely is a plain miss.
	other := sig
	other.Graph = "urand20"
	if p, v := c.Lookup(other); p != nil || v != LookupMiss {
		t.Errorf("other-workload lookup = (%v, %v), want (nil, miss)", p, v)
	}

	if c.Len() != 1 {
		t.Errorf("cache Len = %d, want 1", c.Len())
	}
}

func TestLookupVerdictString(t *testing.T) {
	for v, want := range map[LookupVerdict]string{
		LookupHit: "hit", LookupMiss: "miss", LookupStale: "stale",
	} {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
}

// TestPlanStaleFallsBackOnline is the invalidation contract (a stale
// plan must never be replayed silently): any strict signature field
// differing — graph content, thread count, a policy knob — yields
// LookupStale, leaves the runtime in the online loop, and the epochs
// profile and optimize normally.
func TestPlanStaleFallsBackOnline(t *testing.T) {
	pc := NewPlanCache()

	rec, hot := replayFixture(t, pc)
	sig := rec.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if _, err := rec.ArmPlan(sig); err != nil {
		t.Fatal(err)
	}
	epochOn(t, rec, "e1", hot)
	if _, err := rec.FinishPlan(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		opts []Option
		// mutate derives the lookup signature the run arms with.
		mutate func(*Runtime) Signature
	}{
		{"graph-crc", nil, func(rt *Runtime) Signature {
			return rt.BuildSignature("synthetic", 0x9999, []string{"scan"})
		}},
		{"thread-count", []Option{WithThreads(4)}, func(rt *Runtime) Signature {
			return rt.BuildSignature("synthetic", 0x1234, []string{"scan"})
		}},
		{"policy-knob", []Option{WithSamplePeriod(128)}, func(rt *Runtime) Signature {
			return rt.BuildSignature("synthetic", 0x1234, []string{"scan"})
		}},
		{"governor-knob", []Option{WithGovernor(GovernorOptions{DemoteAfterEpochs: 5})}, func(rt *Runtime) Signature {
			return rt.BuildSignature("synthetic", 0x1234, []string{"scan"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, hot := replayFixture(t, pc, tc.opts...)
			v, err := rt.ArmPlan(tc.mutate(rt))
			if err != nil {
				t.Fatal(err)
			}
			if v != LookupStale {
				t.Fatalf("verdict = %v, want stale", v)
			}
			if rt.Replaying() {
				t.Fatal("stale plan was armed for replay")
			}
			// The fallback is the full online loop: the epoch profiles
			// and optimizes on its own samples.
			er := epochOn(t, rt, "e1", hot)
			if er.Replayed {
				t.Fatal("stale-fallback epoch marked Replayed")
			}
			if er.Samples == 0 || !er.Optimized {
				t.Fatalf("stale-fallback epoch did not run the online loop: %+v", er)
			}
			// And the fallback records a fresh plan under the new
			// signature, so the next identical run hits.
			if _, err := rt.FinishPlan(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlanStaleAfterQuarantine pins the health half of the staleness
// contract: a plan recorded on healthy memory must not replay once
// pages have been quarantined — the cached schedule could land a
// promotion on retired pages. The quarantine bumps the health
// generation, the signature's Health field changes, and the lookup
// degrades to stale with a clean online fallback.
func TestPlanStaleAfterQuarantine(t *testing.T) {
	pc := NewPlanCache()

	rec, hot := replayFixture(t, pc)
	sig := rec.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if v, err := rec.ArmPlan(sig); err != nil || v != LookupMiss {
		t.Fatalf("recording ArmPlan = (%v, %v), want miss", v, err)
	}
	epochOn(t, rec, "e1", hot)
	if _, err := rec.FinishPlan(); err != nil {
		t.Fatal(err)
	}

	// An identically-built runtime would hit — until part of the hot
	// array's range (which the recorded plan promotes) is retired.
	rt, hot2 := replayFixture(t, pc)
	quarBase, quarSize := hot2.Object().Base(), uint64(64<<10)
	if err := rt.System().RetirePages(quarBase, quarSize); err != nil {
		t.Fatal(err)
	}
	sig2 := rt.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if sig2.Key() == sig.Key() {
		t.Fatal("quarantine did not change the signature key")
	}
	v, err := rt.ArmPlan(sig2)
	if err != nil {
		t.Fatal(err)
	}
	if v != LookupStale {
		t.Fatalf("post-quarantine verdict = %v, want stale", v)
	}
	if rt.Replaying() {
		t.Fatal("stale plan was armed for replay despite quarantine")
	}

	// The fallback runs the online loop, and its governor must route
	// the hot set around the retired pages: nothing may be promoted
	// into the quarantined range, ever.
	er := epochOn(t, rt, "e1", hot2)
	if !er.Optimized || er.Replayed {
		t.Fatalf("fallback epoch did not run the online loop: %+v", er)
	}
	if on := rt.System().BytesOnTier(quarBase, quarSize); on[memsim.TierFast] != 0 {
		t.Errorf("%d bytes promoted into the quarantined range", on[memsim.TierFast])
	}
	if !rt.System().IsQuarantined(quarBase, quarSize) {
		t.Error("quarantine ledger lost the retired range")
	}
	assertDataIntact(t, "post-quarantine hot", hot2, 7)
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
	if _, err := rt.FinishPlan(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayFaultStormMatchesOnline drives the same persistent fault
// storm through an online run and a replayed run of the same recorded
// plan: both must degrade per-region through the transactional engine
// (skips, not errors), end on the identical tier layout, and leave the
// data bit-identical.
func TestReplayFaultStormMatchesOnline(t *testing.T) {
	pc := NewPlanCache()

	rec, hot := replayFixture(t, pc)
	sig := rec.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if _, err := rec.ArmPlan(sig); err != nil {
		t.Fatal(err)
	}
	epochOn(t, rec, "e1", hot)
	if _, err := rec.FinishPlan(); err != nil {
		t.Fatal(err)
	}

	// Storm covering every registered byte: no promotion can commit in
	// either mode. Fixtures allocate deterministically, so both runs see
	// the same addresses and the same fault geometry.
	storm := func(rt *Runtime) {
		for _, o := range rt.Objects() {
			rt.ArmFaults(faultinject.Fault{
				Kind: faultinject.Persistent, Op: faultinject.OpRetier,
				Base: o.Base(), Size: o.Size(),
			})
		}
	}

	online, hotA := replayFixture(t, NewPlanCache())
	storm(online)
	onlineRep, err := online.RunEpoch("e1", func() { scanPhase(online, "e1", hotA) })
	if err != nil {
		t.Fatal(err)
	}

	replay, hotB := replayFixture(t, pc)
	storm(replay)
	if v, err := replay.ArmPlan(replay.BuildSignature("synthetic", 0x1234, []string{"scan"})); err != nil || v != LookupHit {
		t.Fatalf("replay ArmPlan = (%v, %v), want hit", v, err)
	}
	replayRep, err := replay.RunEpoch("e1", func() { scanPhase(replay, "e1", hotB) })
	if err != nil {
		t.Fatal(err)
	}
	if !replayRep.Replayed {
		t.Fatal("storm epoch not replayed")
	}
	if _, err := replay.FinishPlan(); err != nil {
		t.Fatal(err)
	}

	// Both modes degraded per-region: promotions were attempted and
	// skipped, nothing moved, no error surfaced.
	om, rm := onlineRep.Migration, replayRep.Migration
	if om.RegionsSkipped == 0 || rm.RegionsSkipped == 0 {
		t.Fatalf("storm did not degrade: online skipped %d, replay skipped %d",
			om.RegionsSkipped, rm.RegionsSkipped)
	}
	if om.RegionsSkipped != rm.RegionsSkipped || om.BytesMoved != 0 || rm.BytesMoved != 0 {
		t.Errorf("outcomes diverged: online {skipped %d, moved %d}, replay {skipped %d, moved %d}",
			om.RegionsSkipped, om.BytesMoved, rm.RegionsSkipped, rm.BytesMoved)
	}
	// Identical end state: every object on the identical tiers, data
	// bit-identical to the deterministic fill in both modes.
	onLayout, reLayout := tierLayout(online), tierLayout(replay)
	for name, want := range onLayout {
		if reLayout[name] != want {
			t.Errorf("object %q layout online %v != replay %v", name, want, reLayout[name])
		}
	}
	assertDataIntact(t, "online under storm", hotA, 7)
	assertDataIntact(t, "replay under storm", hotB, 7)
	for _, rt := range []*Runtime{online, replay} {
		if err := rt.System().CheckConsistency(); err != nil {
			t.Error(err)
		}
	}
}

// TestArmPlanRequirements pins the preconditions: a plan cache and one
// arm per session. A default runtime and a broker tenant arm alike.
func TestArmPlanRequirements(t *testing.T) {
	sig := Signature{Graph: "g", Kernels: "k"}
	plain, err := New(NVMDRAM())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.ArmPlan(sig); err == nil {
		t.Error("ArmPlan without a plan cache must fail")
	}

	bk := NewBroker(govTestbed(8<<20), BrokerConfig{})
	tn, err := bk.Admit(TenantSpec{Name: "t", Class: ClassBurstable, FloorBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"on a default runtime", []Option{WithPlanCache(NewPlanCache())}},
		{"on a broker tenant", []Option{WithPlanCache(NewPlanCache()), WithTenant(tn)}},
	} {
		rt, err := New(NVMDRAM(), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := rt.ArmPlan(sig); err != nil || v != LookupMiss {
			t.Errorf("ArmPlan %s = (%v, %v), want a miss", tc.name, v, err)
		}
		if _, err := rt.ArmPlan(sig); err == nil {
			t.Errorf("double ArmPlan %s must fail", tc.name)
		}
		if _, err := rt.FinishPlan(); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.FinishPlan(); err == nil {
			t.Errorf("FinishPlan %s without an armed plan must fail", tc.name)
		}
	}
}

// recordScanPlan records a three-epoch scan of the fixture's hot array
// on a solo runtime over tb and returns the plan's signature and the
// residency the recording ended with.
func recordScanPlan(t *testing.T, tb Testbed, pc *PlanCache) (Signature, uint64) {
	t.Helper()
	rec, hot := replayFixtureOn(t, tb, pc)
	sig := rec.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if _, err := rec.ArmPlan(sig); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		epochOn(t, rec, "e", hot)
	}
	if _, err := rec.FinishPlan(); err != nil {
		t.Fatal(err)
	}
	return sig, rec.ResidentBytes()
}

// armHit arms sig on rt and fails unless the lookup hits.
func armHit(t *testing.T, rt *Runtime, sig Signature) {
	t.Helper()
	if v, err := rt.ArmPlan(sig); err != nil || v != LookupHit {
		t.Fatalf("ArmPlan = (%v, %v), want a hit", v, err)
	}
}

// replayScan replays three epochs of the scan on an armed rt, calling
// check after each.
func replayScan(t *testing.T, rt *Runtime, hot *Array[uint64], check func(MigrationReport)) {
	t.Helper()
	for e := 0; e < 3; e++ {
		er, err := rt.RunEpoch("e", func() { scanPhase(rt, "e", hot) })
		if err != nil {
			t.Fatal(err)
		}
		if !er.Replayed {
			t.Fatalf("epoch %d not replayed", e+1)
		}
		check(er.Migration)
	}
	assertDataIntact(t, "replayed hot", hot, 7)
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestReplayHonoursRaisedReserve pins that replay passes the admission
// step: a reserve raised after ArmPlan clips the replayed promotions,
// so the registered fast bytes never exceed the capacity left beside
// the reserve.
func TestReplayHonoursRaisedReserve(t *testing.T) {
	pc := NewPlanCache()
	sig, resident := recordScanPlan(t, NVMDRAM(), pc)
	rt, hot := replayFixture(t, pc)
	capacity := rt.System().P.Tiers[memsim.TierFast].CapacityBytes
	allowed := resident / 2
	armHit(t, rt, sig)
	rt.SetCapacityReserve(capacity - allowed)
	var clipped uint64
	replayScan(t, rt, hot, func(m MigrationReport) {
		clipped += m.ClippedBytes
		if got := rt.ResidentBytes(); got > allowed {
			t.Errorf("epoch %d: %d fast bytes above the %d the raised reserve leaves", m.Epoch, got, allowed)
		}
	})
	if clipped == 0 {
		t.Error("the raised reserve clipped nothing")
	}
}

// TestRaisedReserveDrainsResidency pins that a reserve raised above the
// free fast capacity gives back residency, online and on replay alike:
// within three epochs of the raise the registered fast bytes come down
// to the capacity the reserve leaves, also when it leaves none.
func TestRaisedReserveDrainsResidency(t *testing.T) {
	pc := NewPlanCache()
	sig, _ := recordScanPlan(t, NVMDRAM(), pc)
	for _, tc := range []struct {
		name    string
		replay  bool
		allowed uint64
	}{
		{"online", false, 64 << 10},
		{"online-none", false, 0},
		{"replay", true, 64 << 10},
		{"replay-none", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewPlanCache()
			if tc.replay {
				cache = pc
			}
			rt, hot := replayFixture(t, cache)
			if tc.replay {
				armHit(t, rt, sig)
			}
			for e := 0; e < 3; e++ {
				if rep := epochOn(t, rt, "e", hot); rep.Replayed != tc.replay {
					t.Fatalf("epoch %d: Replayed = %v", e+1, rep.Replayed)
				}
			}
			if got := rt.ResidentBytes(); got <= tc.allowed {
				t.Fatalf("only %d fast bytes resident before the raise", got)
			}
			capacity := rt.System().P.Tiers[memsim.TierFast].CapacityBytes
			rt.SetCapacityReserve(capacity - tc.allowed)
			for e := 0; e < 3; e++ {
				if _, err := rt.RunEpoch("e", func() { scanPhase(rt, "e", hot) }); err != nil {
					t.Fatal(err)
				}
			}
			if got := rt.ResidentBytes(); got > tc.allowed {
				t.Errorf("%d fast bytes resident 3 epochs after the raise, want at most %d", got, tc.allowed)
			}
			assertDataIntact(t, "hot", hot, 7)
			if err := rt.System().CheckConsistency(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestReplayOnTenantHonoursShare pins replay on a broker tenant: a plan
// recorded on a solo runtime replays on a tenant whose share is below
// the recorded residency, and the admission step keeps the tenant's
// fast bytes plus its quarantine debit within its share every epoch.
func TestReplayOnTenantHonoursShare(t *testing.T) {
	tb := govTestbed(8 << 20)
	pc := NewPlanCache()
	sig, resident := recordScanPlan(t, tb, pc)
	share := (resident / 2) &^ (memsim.SmallPage - 1)
	bk := NewBroker(tb, BrokerConfig{})
	tn, err := bk.Admit(TenantSpec{Name: "replayer", Class: ClassGuaranteed, FloorBytes: share})
	if err != nil {
		t.Fatal(err)
	}
	rt, hot := replayFixtureOn(t, tb, pc, WithTenant(tn))
	armHit(t, rt, sig)
	var clipped uint64
	replayScan(t, rt, hot, func(m MigrationReport) {
		clipped += m.ClippedBytes
		u := bk.System().TenantUsage(tn.ID())
		if u.FastBytes+u.QuarantinedBytes > tn.Share() {
			t.Errorf("epoch %d: %d fast + %d debit bytes above the %d share",
				m.Epoch, u.FastBytes, u.QuarantinedBytes, tn.Share())
		}
	})
	if clipped == 0 {
		t.Error("the tenant's share clipped nothing")
	}
	if rt.ResidentBytes() == 0 {
		t.Error("the replay placed nothing within the share")
	}
	if err := rt.Close(); err != nil {
		t.Error(err)
	}
}

// replayEpochOn runs one replayed scan epoch on rt and checks that the
// tenant's fast bytes plus its quarantine debit stay within the share
// in force during the epoch's placement.
func replayEpochOn(t *testing.T, rt *Runtime, hot *Array[uint64], tn *Tenant) EpochReport {
	t.Helper()
	share := tn.Share()
	er, err := rt.RunEpoch("e", func() { scanPhase(rt, "e", hot) })
	if err != nil {
		t.Fatal(err)
	}
	if !er.Replayed {
		t.Fatalf("epoch %d not replayed", er.Epoch)
	}
	if u := rt.System().TenantUsage(tn.ID()); u.FastBytes+u.QuarantinedBytes > share {
		t.Errorf("epoch %d: %d fast + %d debit bytes above the %d share",
			er.Epoch, u.FastBytes, u.QuarantinedBytes, share)
	}
	return er
}

// TestReplayDrainsShedTenant pins that a replaying tenant gives its
// residency back when its share falls below it: a best-effort tenant
// earns a share through its replayed hunger, the broker sheds it under
// aggregate pressure, and its next replayed epoch drains it — past the
// end of the recording too — instead of holding fast bytes the shed was
// meant to free.
func TestReplayDrainsShedTenant(t *testing.T) {
	tb := govTestbed(8 << 20)
	pc := NewPlanCache()
	sig, _ := recordScanPlan(t, tb, pc)
	bk := NewBroker(tb, BrokerConfig{HighWatermark: 0.02, LowWatermark: 0.01, QuantumBytes: 1 << 20})
	tn, err := bk.Admit(TenantSpec{Name: "be", Class: ClassBestEffort})
	if err != nil {
		t.Fatal(err)
	}
	rt, hot := replayFixtureOn(t, tb, pc, WithTenant(tn))
	armHit(t, rt, sig)
	var placed uint64
	shed := false
	for e := 0; e < 12 && !shed; e++ {
		replayEpochOn(t, rt, hot, tn)
		placed = max(placed, rt.ResidentBytes())
		shed = len(bk.Rebalance().Shed) > 0
	}
	if placed == 0 {
		t.Fatal("the replay never placed anything within its granted share")
	}
	if !shed {
		t.Fatalf("the broker never shed the replaying tenant (share %d)", tn.Share())
	}
	er := replayEpochOn(t, rt, hot, tn)
	if got := bk.System().TenantUsage(tn.ID()).FastBytes; got != 0 {
		t.Errorf("shed tenant still holds %d fast bytes after replayed epoch %d", got, er.Epoch)
	}
	if er.Migration.DemotedBytes == 0 {
		t.Errorf("drain epoch %d demoted nothing", er.Epoch)
	}
	// The drained chunks are deferred, not forgotten: the next epoch
	// offers them again, and the zero share clips them.
	if er = replayEpochOn(t, rt, hot, tn); er.Migration.ClippedBytes == 0 {
		t.Errorf("epoch %d after the drain clipped nothing", er.Epoch)
	}
	assertDataIntact(t, "drained hot", hot, 7)
	if err := rt.Close(); err != nil {
		t.Error(err)
	}
}

// TestReplayingTenantEarnsShare pins the replayed arbiter signal: a
// burstable tenant replays a plan whose residency is above its floor
// next to an online tenant. Replay skips the analysis, so the tenant
// reports the recorded heat, and while its replay is clipped that is a
// hunger signal: the arbiter grows its share past the floor, the
// deferred promotions land as it does, and the replay reaches the
// recorded residency.
func TestReplayingTenantEarnsShare(t *testing.T) {
	tb := govTestbed(8 << 20)
	pc := NewPlanCache()
	sig, resident := recordScanPlan(t, tb, pc)
	floor := (resident / 4) &^ (memsim.SmallPage - 1)
	bk := NewBroker(tb, BrokerConfig{QuantumBytes: 64 << 10})
	tr, err := bk.Admit(TenantSpec{Name: "replayer", Class: ClassBurstable, FloorBytes: floor})
	if err != nil {
		t.Fatal(err)
	}
	to, err := bk.Admit(TenantSpec{Name: "online", Class: ClassBurstable, FloorBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// The replayer allocates first, at the recording's addresses.
	rt, hot := replayFixtureOn(t, tb, pc, WithTenant(tr))
	armHit(t, rt, sig)
	other, oHot, oCold := brokerTenantRuntime(t, to)
	var clipped uint64
	for e := 0; e < 8; e++ {
		clipped += replayEpochOn(t, rt, hot, tr).Migration.ClippedBytes
		epochOn(t, other, "o", oHot, oCold)
		bk.Rebalance()
	}
	if clipped == 0 {
		t.Error("the floor clipped nothing")
	}
	if tr.Share() <= floor {
		t.Errorf("replaying tenant's share %d never grew past its %d floor", tr.Share(), floor)
	}
	if got := rt.ResidentBytes(); got != resident {
		t.Errorf("replay holds %d fast bytes, want the recorded %d", got, resident)
	}
	assertDataIntact(t, "replayer hot", hot, 7)
	assertDataIntact(t, "online hot", oHot, 7)
	for _, r := range []*Runtime{rt, other} {
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}
}
