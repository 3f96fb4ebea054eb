package harness

import (
	"testing"

	"atmem/internal/memsim"
)

// TestChaosSoak runs the chaos-soak scenario end to end: the
// fault-free twin and the faulted run, judged by chaosBars (quarantine
// volume crossed during the storm, corruption fully detected, repaired
// and demoted, identical results), with runScript checking after every
// epoch that the ledger is never re-hosted. The test pins the shape of
// the evidence on top.
func TestChaosSoak(t *testing.T) {
	sc := chaosScript(true)
	res, err := runChaosSoak("")
	if err != nil {
		logScriptEpochs(t, res)
		t.Fatal(err)
	}
	want := 0
	for _, st := range sc.Steps {
		want += st.Epochs
	}
	if len(res.Epochs) != want {
		t.Fatalf("recorded %d epochs, want %d", len(res.Epochs), want)
	}

	fastCap := memsim.NVMDRAMParams().Tiers[memsim.TierFast].CapacityBytes
	target := chaosQuarantineTarget()
	if target != fastCap/20 {
		t.Errorf("quarantine bar %d, want 5%% of %d", target, fastCap)
	}
	if res.Health.Quarantined < target {
		t.Errorf("quarantined %d < bar %d", res.Health.Quarantined, target)
	}
	if e := chaosTargetEpoch(res); e == 0 || e > sc.DisarmAfter {
		t.Errorf("quarantine bar crossed at epoch %d, want during the storm", e)
	}

	// The warm (pre-arming) epochs must be clean, and the storm must
	// leave visible per-epoch evidence.
	for i, e := range res.Epochs[:sc.ArmAfter] {
		if e.Health.Quarantined != 0 || e.Health.Scrub.Detections != 0 {
			t.Errorf("warm epoch %d already shows damage: %+v", i+1, e.Health)
		}
	}
	last := res.Epochs[len(res.Epochs)-1].Health
	if last.Quarantined != res.Health.Quarantined {
		t.Errorf("last epoch quarantined %d != final stats %d", last.Quarantined, res.Health.Quarantined)
	}
	if last.Scrub.Detections != res.Health.Scrub.Detections || last.Scrub.Repairs != res.Health.Scrub.Repairs {
		t.Errorf("last epoch scrub counters %d/%d != final %d/%d",
			last.Scrub.Detections, last.Scrub.Repairs, res.Health.Scrub.Detections, res.Health.Scrub.Repairs)
	}
	if res.Health.DegradedRanges == 0 {
		t.Error("degrade order never applied")
	}
	if res.FaultEvents == 0 {
		t.Error("no fault events recorded")
	}
}
