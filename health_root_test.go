package atmem

import (
	"testing"

	"atmem/internal/faultinject"
	"atmem/internal/health"
	"atmem/internal/memsim"
)

// healthFixture builds a governed runtime with the scoreboard and
// scrubber on, plus the usual hot/cold array pair.
func healthFixture(t *testing.T, opts ...Option) (*Runtime, *Array[uint64], *Array[uint64]) {
	t.Helper()
	all := append([]Option{
		WithSamplePeriod(64),
		WithGovernor(GovernorOptions{}),
		WithScrubber(),
	}, opts...)
	rt, err := New(NVMDRAM(), all...)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewArray[uint64](rt, "cold", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(hot, 7)
	fillDeterministic(cold, 11)
	return rt, hot, cold
}

// TestScrubberHealsInjectedCorruption is the tentpole's end-to-end
// loop: epoch 1 promotes the hot set and snapshots its CRCs; a Corrupt
// order fires at epoch 2 and flips bytes in a fast-resident chunk; the
// epoch-2 scrub pass detects the mismatch before any kernel runs,
// repairs the bytes from backup, demotes the chunk, and retires its
// pages — so the workload's data stays bit-identical and the bad pages
// never host data again.
func TestScrubberHealsInjectedCorruption(t *testing.T) {
	rt, hot, _ := healthFixture(t)

	epochOn(t, rt, "e1", hot)
	if hot.Object().FastBytes() == 0 {
		t.Fatal("epoch 1 did not promote the hot array")
	}
	if st := rt.HealthStats(); st.Scrub.Tracked == 0 {
		t.Fatal("no chunks snapshotted after epoch 1")
	}

	// Nth counts the injector's own epoch clock, which starts at arming
	// time: 1 = the next runtime epoch.
	rt.ArmFaults(faultinject.Fault{
		Kind: faultinject.Corrupt, Nth: 1,
		Base: hot.Object().Base(), Size: hot.Object().Size(),
	})
	epochOn(t, rt, "e2", hot)

	st := rt.HealthStats()
	if st.CorruptedChunks == 0 {
		t.Fatal("corruption order did not land")
	}
	if st.Scrub.Detections == 0 || st.Scrub.Repairs != st.Scrub.Detections {
		t.Fatalf("scrub did not detect/repair: %+v", st.Scrub)
	}
	if st.EmergencyDemotions == 0 {
		t.Error("detected chunk was not emergency-demoted")
	}
	if st.Quarantined == 0 || st.RetiredRanges == 0 {
		t.Errorf("damaged pages not retired: %+v", st)
	}
	// The repair landed before the epoch's kernels: data bit-identical.
	assertDataIntact(t, "hot after corruption", hot, 7)

	// Quarantined pages stay empty across further epochs, and the
	// capacity ledger reflects the shrink.
	epochOn(t, rt, "e3", hot)
	for _, qr := range rt.System().QuarantinedRanges() {
		if on := rt.System().BytesOnTier(qr.Base, qr.Size); on[memsim.TierFast] != 0 {
			t.Errorf("quarantined range [%#x,+%#x) re-hosts %d fast bytes",
				qr.Base, qr.Size, on[memsim.TierFast])
		}
	}
	rep := rt.LastMigration()
	if !rep.Health.Active() || rep.Health.QuarantinedBytes != st.Quarantined {
		t.Errorf("MigrationReport.Health = %+v", rep.Health)
	}
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestPersistentFaultsCondemnAndQuarantine drives the scoreboard path:
// a persistent fault storm over the hot array makes every promotion
// skip; the failures cross the persistence threshold, the granules are
// condemned, and the epoch-end heal retires them. After the storm
// clears, the governor keeps routing placement around the retired
// pages.
func TestPersistentFaultsCondemnAndQuarantine(t *testing.T) {
	rt, hot, _ := healthFixture(t, WithHealthPolicy(health.Policy{
		Window: 4, PersistentThreshold: 2, BackoffEpochs: 1, MaxBackoff: 2,
	}))
	rt.ArmFaults(faultinject.Fault{
		Kind: faultinject.Persistent, Op: faultinject.OpRetier,
		Base: hot.Object().Base(), Size: hot.Object().Size(),
	})

	// Each epoch's skipped promotions feed the scoreboard; at the
	// threshold the granules are condemned and retired. The breaker may
	// open along the way (it sees the same failures), so allow a few
	// epochs for the storm to play out.
	for e := 0; e < 6 && rt.HealthStats().Quarantined == 0; e++ {
		if _, err := rt.RunEpoch("storm", func() { scanPhase(rt, "storm", hot) }); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.HealthStats()
	if st.Board.Condemned == 0 {
		t.Fatalf("storm never condemned a granule: %+v", st.Board)
	}
	if st.Quarantined == 0 {
		t.Fatalf("condemned granules were not retired: %+v", st)
	}
	if !rt.System().IsQuarantined(hot.Object().Base(), hot.Object().Size()) {
		t.Error("hot range not in the quarantine ledger")
	}

	// Storm over: later epochs must not promote into the retired pages.
	rt.DisarmFaults()
	for e := 0; e < 3; e++ {
		if _, err := rt.RunEpoch("after", func() { scanPhase(rt, "after", hot) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, qr := range rt.System().QuarantinedRanges() {
		if on := rt.System().BytesOnTier(qr.Base, qr.Size); on[memsim.TierFast] != 0 {
			t.Errorf("quarantined range [%#x,+%#x) re-hosts %d fast bytes",
				qr.Base, qr.Size, on[memsim.TierFast])
		}
	}
	assertDataIntact(t, "hot after storm", hot, 7)
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestHealthVetoSurvivesTrustWindow pins the backoff veto: while a
// granule is suspect, the governor drops promotions targeting it and
// counts the veto on the report.
func TestHealthVetoSurvivesTrustWindow(t *testing.T) {
	rt, hot, _ := healthFixture(t, WithHealthPolicy(health.Policy{
		Window: 8, PersistentThreshold: 8, BackoffEpochs: 4, MaxBackoff: 8,
	}))
	// One hard failure against the hot range's granules puts them in
	// backoff without condemning them.
	rt.Scoreboard().ObserveFailure(hot.Object().Base(), hot.Object().Size(), "crc")

	rep := epochOn(t, rt, "e1", hot)
	if rep.Migration.Health.PromotionsVetoed == 0 {
		t.Fatalf("suspect granules were promoted: %+v", rep.Migration.Health)
	}
	if hot.Object().FastBytes() != 0 {
		t.Error("hot array reached the fast tier through a suspect granule")
	}
}

// TestHealthVetoClipsToTrustedGranules pins that the health veto clips a
// promotion instead of dropping it: with one distrusted granule in the
// middle of the hot array, the rest of the array is still promoted, and
// only the distrusted granule's bytes are vetoed.
func TestHealthVetoClipsToTrustedGranules(t *testing.T) {
	const granule = 64 << 10
	rt, hot, _ := healthFixture(t, WithHealthPolicy(health.Policy{
		GranuleBytes: granule, Window: 8, PersistentThreshold: 8, BackoffEpochs: 4, MaxBackoff: 8,
	}))
	base, size := hot.Object().Base(), hot.Object().Size()
	if size < 3*granule {
		t.Fatalf("hot array spans %d bytes, want at least three granules", size)
	}
	bad := base + granule
	rt.Scoreboard().ObserveFailure(bad, granule, "crc")

	rep := epochOn(t, rt, "e1", hot)
	if got := rep.Migration.Health.PromotionsVetoed; got != 1 {
		t.Errorf("PromotionsVetoed = %d, want 1 (the one distrusted granule)", got)
	}
	if got := rt.System().BytesOnTier(bad, granule)[memsim.TierFast]; got != 0 {
		t.Errorf("%d bytes of the distrusted granule reached the fast tier", got)
	}
	if got, want := hot.Object().FastBytes(), size-granule; got != want {
		t.Errorf("hot array fast bytes = %d, want %d (all but the distrusted granule)", got, want)
	}
}
