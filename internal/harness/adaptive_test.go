package harness

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"atmem"
	"atmem/internal/governor"
	"atmem/internal/telemetry"
)

func logAdaptiveEpochs(t *testing.T, res *AdaptiveResult) {
	t.Helper()
	for _, e := range res.Epochs {
		m := e.Migration
		t.Logf("epoch %2d %-3s reserve=%dMiB samples=%d +%d/-%d pressure=%d resident=%d breaker=%s skipped=%t empty=%t regskip=%d",
			e.Epoch, e.Workload, e.Reserve>>20, e.Samples,
			m.PromotedBytes, m.DemotedBytes, m.PressureDemotedBytes,
			m.ResidentBytes, m.Breaker, m.BreakerSkipped, m.DeltaEmpty, m.RegionsSkipped)
	}
	t.Logf("transitions: %s; final=%s; faults=%d", transitionSummary(res.Transitions), res.FinalState, res.FaultEvents)
}

// TestAdaptivePressureConvergence is the fault-free acceptance run: the
// governed runtime follows the BFS→PR hot-set shift under a tightening
// reserve, funds the new hot set by demoting the old one, and converges
// — empty deltas, nothing moving — within DemoteAfterEpochs+2 epochs of
// the reserve settling, staying converged for the rest of the hold
// window (no thrash). RunAdaptivePressure itself asserts CRC-identical
// graph data, validated results, and a leak-free ledger.
func TestAdaptivePressureConvergence(t *testing.T) {
	sc := DefaultAdaptiveScenario()
	res, err := RunAdaptivePressure(sc)
	if err != nil {
		logAdaptiveEpochs(t, res)
		t.Fatal(err)
	}
	logAdaptiveEpochs(t, res)

	// The first BFS epoch promotes the BFS hot set.
	if res.Epochs[0].Migration.PromotedBytes == 0 {
		t.Error("first BFS epoch promoted nothing")
	}
	// The shift runs under pressure: with both hot sets oversubscribing
	// the tightened budget, the watermarks must force demotions ahead of
	// hysteresis expiry in at least one PR epoch.
	pressured := false
	for _, e := range res.Epochs[res.ShiftStart():] {
		if e.Migration.PressureDemotedBytes > 0 {
			pressured = true
		}
	}
	if !pressured {
		t.Error("no epoch used pressure demotion: the shift never oversubscribed the watermarks (retune reserves)")
	}
	// Convergence: every epoch after the settle window is an empty delta.
	settle := res.HoldStart() + sc.Governor.DemoteAfterEpochs + 2
	if tail := len(res.Epochs) - settle; tail < 10 {
		t.Fatalf("scenario leaves only %d epochs after the settle window, need >= 10", tail)
	}
	for _, e := range res.Epochs[settle:] {
		m := e.Migration
		if !m.DeltaEmpty || m.BytesMoved != 0 {
			t.Errorf("epoch %d after settle window not converged: empty=%t moved=%d",
				e.Epoch, m.DeltaEmpty, m.BytesMoved)
		}
	}
	// The breaker never had a reason to move.
	if len(res.Transitions) != 0 || res.FinalState != governor.StateClosed {
		t.Errorf("fault-free run moved the breaker: %s (final %s)",
			transitionSummary(res.Transitions), res.FinalState)
	}
}

// TestAdaptivePressureBreakerRideThrough is the faulted acceptance run:
// a schedule that fails every staging reservation through epoch 11
// would, without the governor, degrade every single epoch. The breaker
// must open instead, skip epochs while the faults persist, and close
// again via a half-open probe once the storm ends — with the kernels
// running and validating throughout.
func TestAdaptivePressureBreakerRideThrough(t *testing.T) {
	sc := DefaultAdaptiveScenario()
	sc.FaultSchedule = AdaptiveFaultSchedule()
	sc.FaultEpochs = adaptiveFaultEpochs
	res, err := RunAdaptivePressure(sc)
	if err != nil {
		logAdaptiveEpochs(t, res)
		t.Fatal(err)
	}
	logAdaptiveEpochs(t, res)

	if res.FaultEvents == 0 {
		t.Fatal("fault schedule never fired")
	}
	var opened, reclosed bool
	skipped := 0
	for _, tr := range res.Transitions {
		if tr.From == governor.StateClosed && tr.To == governor.StateOpen {
			opened = true
		}
		if tr.From == governor.StateHalfOpen && tr.To == governor.StateClosed {
			reclosed = true
		}
	}
	for _, e := range res.Epochs {
		if e.Migration.BreakerSkipped {
			skipped++
		}
	}
	if !opened {
		t.Error("breaker never opened under the fault storm")
	}
	if skipped == 0 {
		t.Error("open breaker never skipped an epoch")
	}
	if !reclosed {
		t.Error("breaker never closed again after the faults stopped")
	}
	if res.FinalState != governor.StateClosed {
		t.Errorf("final breaker state %s, want closed", res.FinalState)
	}
	// After recovery the run still converges: the last epoch is an empty
	// delta with the PR hot set resident.
	last := res.Epochs[len(res.Epochs)-1].Migration
	if !last.DeltaEmpty || last.ResidentBytes == 0 {
		t.Errorf("faulted run did not re-converge: empty=%t resident=%d",
			last.DeltaEmpty, last.ResidentBytes)
	}
}

// TestAdaptivePressureSmoke is CI's adaptive-pressure smoke step: the
// faulted scenario with tracing on must produce a parseable Chrome trace
// carrying the governor's control-plane structure — one span per epoch
// and the breaker's transition instants. Set ATMEM_ADAPTIVE_OUT to a
// directory to keep the artifacts (CI uploads them).
func TestAdaptivePressureSmoke(t *testing.T) {
	dir := os.Getenv("ATMEM_ADAPTIVE_OUT")
	if dir == "" {
		dir = t.TempDir()
	}
	sc := DefaultAdaptiveScenario()
	sc.FaultSchedule = AdaptiveFaultSchedule()
	sc.FaultEpochs = adaptiveFaultEpochs
	sc.TraceDir = dir
	res, err := RunAdaptivePressure(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TracePath == "" {
		t.Fatal("no trace written")
	}
	f, err := os.Open(res.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	count := func(cat, name string) int {
		n := 0
		for _, e := range events {
			if (cat == "" || e.Cat == cat) && (name == "" || strings.HasPrefix(e.Name, name)) {
				n++
			}
		}
		return n
	}
	// One epoch span per epoch the scenario ran (begin+end pair or a
	// single complete event depending on the recorder's encoding — count
	// names on the epoch track instead of event phases).
	if got := count("epoch", ""); got == 0 {
		t.Error("trace has no epoch spans")
	}
	// Every breaker transition surfaced as a governor instant.
	if got := count("governor", "breaker-"); got != len(res.Transitions) {
		t.Errorf("breaker instants in trace %d != transitions %d", got, len(res.Transitions))
	}
	if len(res.Transitions) == 0 {
		t.Error("faulted smoke run produced no breaker transitions")
	}
	// Fault events made it into the trace.
	if got := count("fault", ""); got != res.FaultEvents {
		t.Errorf("fault events in trace %d != injector count %d", got, res.FaultEvents)
	}
	// Companion artifacts exist and are non-empty.
	stem := strings.TrimSuffix(res.TracePath, ".trace.json")
	for _, suffix := range []string{".timeline.csv", ".heat.csv"} {
		st, err := os.Stat(stem + suffix)
		if err != nil {
			t.Errorf("missing artifact: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", stem+suffix)
		}
	}
	// The governed run's scorecards artifact: one card per epoch,
	// round-tripping through JSON bit-exact with the in-memory result.
	if len(res.Scorecards) != len(res.Epochs) {
		t.Fatalf("%d scorecards for %d epochs", len(res.Scorecards), len(res.Epochs))
	}
	data, err := os.ReadFile(stem + ".scorecards.json")
	if err != nil {
		t.Fatalf("missing scorecards artifact: %v", err)
	}
	var cards []atmem.Scorecard
	if err := json.Unmarshal(data, &cards); err != nil {
		t.Fatalf("scorecards artifact not valid JSON: %v", err)
	}
	if len(cards) != len(res.Scorecards) {
		t.Fatalf("artifact has %d scorecards, result has %d", len(cards), len(res.Scorecards))
	}
	for i, c := range cards {
		if c != res.Scorecards[i] {
			t.Errorf("scorecard %d diverged across the JSON round trip", i)
		}
	}
}

// TestGovernedHarnessRun checks the RunConfig.Governed plumbing: a
// governed harness run goes through RunEpoch and its report carries the
// governor fields.
func TestGovernedHarnessRun(t *testing.T) {
	res, err := Run(RunConfig{Testbed: NVM, App: "pr", Dataset: "pokec",
		Policy: ATMem, Governed: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migration.Epoch != 1 {
		t.Errorf("governed run epoch = %d, want 1", res.Migration.Epoch)
	}
	if res.Migration.Breaker != "closed" {
		t.Errorf("governed run breaker = %q, want closed", res.Migration.Breaker)
	}
	if res.Migration.PromotedBytes == 0 {
		t.Error("governed run promoted nothing")
	}
	if !res.Validated {
		t.Error("governed run skipped validation")
	}
}
