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
	all := append([]Option{
		WithSamplePeriod(64),
		WithGovernor(GovernorOptions{}),
		WithPlanCache(pc),
	}, opts...)
	rt, err := New(NVMDRAM(), all...)
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
	if err := rec.DrainAsync(); err != nil {
		t.Fatal(err)
	}
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
		if err := rt.DrainAsync(); err != nil {
			t.Fatal(err)
		}
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

	c.Put(&CompiledPlan{Sig: sig, Epochs: []migrate.Schedule{
		{Promotions: []migrate.Region{{Base: 0x1000, Size: 0x1000}}},
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

// TestArmPlanRequirements pins the preconditions: a plan cache, the
// governor, a solo runtime, and one arm per session.
func TestArmPlanRequirements(t *testing.T) {
	sig := Signature{Graph: "g", Kernels: "k"}
	bk := NewBroker(govTestbed(8<<20), BrokerConfig{})
	tn, err := bk.Admit(TenantSpec{Name: "t", Class: ClassBurstable, FloorBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"without a plan cache", []Option{WithGovernor(GovernorOptions{})}},
		{"without the governor", []Option{WithPlanCache(NewPlanCache())}},
		// Replayed promotions would bypass the tenant's share cap.
		{"on a broker tenant", []Option{WithPlanCache(NewPlanCache()), WithTenant(tn)}},
	} {
		rt, err := New(NVMDRAM(), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.ArmPlan(sig); err == nil {
			t.Errorf("ArmPlan %s must fail", tc.name)
		}
	}

	pc := NewPlanCache()
	rt, _ := replayFixture(t, pc)
	if _, err := rt.ArmPlan(rt.BuildSignature("g", 1, []string{"k"})); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ArmPlan(rt.BuildSignature("g", 1, []string{"k"})); err == nil {
		t.Error("double ArmPlan must fail")
	}
	if _, err := rt.FinishPlan(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.FinishPlan(); err == nil {
		t.Error("FinishPlan without an armed plan must fail")
	}
}
