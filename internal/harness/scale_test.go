package harness

import (
	"strings"
	"testing"

	"atmem"
)

// TestPlanReplayCheckCatchesSkippedPromotion is the mutation proof of
// the plan-replay equivalence check: a faithful replay passes it, and a
// replay of the same plan without its last recorded promotion fails it
// on residency or layout. The result CRC alone does not catch that
// mutation, because placement never changes what the kernels compute.
func TestPlanReplayCheckCatchesSkippedPromotion(t *testing.T) {
	const app, ds, epochs = "pr", "pokec", 4
	pc := atmem.NewPlanCache()
	online, err := runPlanSession(pc, app, ds, epochs)
	if err != nil {
		t.Fatal(err)
	}
	faithful, err := runPlanSession(pc, app, ds, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlanReplay(online, faithful); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}

	// online.Plan is the plan the cache holds, so the next session
	// replays the mutated schedule.
	dropped := false
	for e := len(online.Plan.Epochs) - 1; e >= 0 && !dropped; e-- {
		if p := online.Plan.Epochs[e].Promotions; len(p) > 0 {
			online.Plan.Epochs[e].Promotions = p[:len(p)-1]
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("recorded plan has no promotion to drop")
	}
	mutated, err := runPlanSession(pc, app, ds, epochs)
	if err != nil {
		t.Fatal(err)
	}
	err = checkPlanReplay(online, mutated)
	if err == nil {
		t.Fatal("replay without the last recorded promotion passed the equivalence check")
	}
	if msg := err.Error(); !strings.Contains(msg, "residency") && !strings.Contains(msg, "layout") {
		t.Fatalf("check failed on %q, want a residency or layout divergence", msg)
	}
	t.Logf("mutation caught: %v", err)
}
