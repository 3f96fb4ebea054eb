package harness

import (
	"testing"

	"atmem/internal/governor"
)

// reducedScenario shrinks the adaptive-pressure scenario to a test-sized
// epoch sequence; it keeps the reserve trajectory (and therefore the
// migration pressure) of the full experiment.
func reducedScenario() AdaptiveScenario {
	sc := DefaultAdaptiveScenario()
	sc.BFSEpochs = 2
	sc.ShiftEpochs = 2
	sc.HoldEpochs = 4
	return sc
}

// TestOverlapBeatsStopTheWorld guards the overlap experiment's
// acceptance property at test cost: the identical reduced scenario must
// finish in strictly fewer simulated seconds overlapped than
// stop-the-world, with bit-identical graph data. RunAdaptivePressure
// itself additionally verifies kernel validation and ledger consistency
// in both modes.
func TestOverlapBeatsStopTheWorld(t *testing.T) {
	sync, err := RunAdaptivePressure(reducedScenario())
	if err != nil {
		t.Fatal(err)
	}
	async := reducedScenario()
	async.Async = true
	over, err := RunAdaptivePressure(async)
	if err != nil {
		t.Fatal(err)
	}

	if over.TotalSimSeconds >= sync.TotalSimSeconds {
		t.Errorf("overlapped %.9fs not faster than stop-the-world %.9fs",
			over.TotalSimSeconds, sync.TotalSimSeconds)
	}
	if over.DataCRC != sync.DataCRC {
		t.Errorf("graph data diverged: overlapped %08x vs stop-the-world %08x",
			over.DataCRC, sync.DataCRC)
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

// TestOverlapSurvivesFaultStorm runs the reduced scenario overlapped
// with every staging reservation failing through epoch 5: placement
// degrades (breaker opens, regions skip) but data stays CRC-identical to
// the fault-free modes and the breaker recovers once the storm lifts.
func TestOverlapSurvivesFaultStorm(t *testing.T) {
	clean, err := RunAdaptivePressure(reducedScenario())
	if err != nil {
		t.Fatal(err)
	}
	sc := reducedScenario()
	sc.Async = true
	sc.FaultSchedule = AdaptiveFaultSchedule()
	sc.FaultEpochs = 5
	res, err := RunAdaptivePressure(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultEvents == 0 {
		t.Error("fault storm never fired")
	}
	if res.DataCRC != clean.DataCRC {
		t.Errorf("faulted overlapped run changed graph data: %08x vs %08x",
			res.DataCRC, clean.DataCRC)
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
