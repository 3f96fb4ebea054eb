package harness

import (
	"testing"

	"atmem/internal/governor"
)

// reduced shrinks an adaptive-pressure script to a test-sized epoch
// sequence; it keeps the reserve trajectory (and therefore the
// migration pressure) of the full experiment.
func reduced(sc Script) Script {
	sc.Steps[0].Epochs, sc.Steps[1].Epochs, sc.Steps[2].Epochs = 2, 2, 4
	return sc
}

func runReduced(t *testing.T, sc Script) *ScriptResult {
	t.Helper()
	res, err := runScript(reduced(sc))
	if err != nil {
		logScriptEpochs(t, res)
		t.Fatal(err)
	}
	return res
}

// TestOverlapBeatsStopTheWorld guards the overlap experiment's
// acceptance property at test cost: the identical reduced script must
// finish in strictly fewer simulated seconds overlapped than
// stop-the-world with identical results (overlapBars), hiding
// migration time. runScript itself additionally verifies kernel
// validation and ledger consistency in both modes.
func TestOverlapBeatsStopTheWorld(t *testing.T) {
	syncSc, asyncSc, _ := overlapScripts()
	sync := runReduced(t, syncSc)
	over := runReduced(t, asyncSc)
	if err := overlapBars(sync, over, nil); err != nil {
		t.Fatal(err)
	}
	if over.OverlapSeconds <= 0 || over.StolenSeconds <= 0 {
		t.Errorf("overlapped run hid no migration time: overlap=%.9f stolen=%.9f",
			over.OverlapSeconds, over.StolenSeconds)
	}
	if sync.OverlapSeconds != 0 || sync.StolenSeconds != 0 {
		t.Errorf("stop-the-world run reported overlap accounting: overlap=%.9f stolen=%.9f",
			sync.OverlapSeconds, sync.StolenSeconds)
	}
	// Both pipelines settle the same placement once the async tail is
	// drained.
	if over.ResidentBytes != sync.ResidentBytes {
		t.Errorf("modes converged to different residency: overlapped %d vs stop-the-world %d",
			over.ResidentBytes, sync.ResidentBytes)
	}
}

// TestOverlapSurvivesFaultStorm runs the reduced script overlapped
// with every staging reservation failing through epoch 5: placement
// degrades (breaker opens, regions skip) but the results stay identical
// to the fault-free stop-the-world run (overlapBars) and the breaker
// recovers once the storm lifts.
func TestOverlapSurvivesFaultStorm(t *testing.T) {
	syncSc, _, faultedSc := overlapScripts()
	clean := runReduced(t, syncSc)
	faultedSc.DisarmAfter = 5
	res := runReduced(t, faultedSc)
	if err := overlapBars(clean, nil, res); err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents == 0 {
		t.Error("fault storm never fired")
	}
	if res.FinalState != governor.StateClosed {
		t.Errorf("breaker did not recover after the storm: %s", res.FinalState)
	}
}

// TestSuiteAsyncFlagThreadsThroughRuns pins the CLI surface: a suite
// with Async set drives ATMem-policy runs through the overlapped path
// (overlap accounting present) and leaves baseline runs untouched.
func TestSuiteAsyncFlagThreadsThroughRuns(t *testing.T) {
	s := NewSuite()
	s.Async = true
	at, err := s.Run(RunConfig{Testbed: NVM, App: "pr", Dataset: "pokec", Policy: ATMem})
	if err != nil {
		t.Fatal(err)
	}
	if at.OverlapSeconds <= 0 {
		t.Errorf("suite async run hid no migration time: %+v", at.OverlapSeconds)
	}
	if at.Migration.BytesMoved == 0 {
		t.Error("suite async run migrated nothing")
	}
	if !at.Validated {
		t.Error("suite async run failed validation")
	}
	base, err := s.Run(RunConfig{Testbed: NVM, App: "pr", Dataset: "pokec", Policy: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if base.OverlapSeconds != 0 || base.Migration.BytesMoved != 0 {
		t.Errorf("baseline run under async suite migrated: %+v", base.Migration)
	}
}
