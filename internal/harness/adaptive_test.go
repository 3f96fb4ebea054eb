package harness

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"atmem"
	"atmem/internal/telemetry"
)

func logScriptEpochs(t *testing.T, res *ScriptResult) {
	t.Helper()
	if res == nil {
		return
	}
	for i, e := range res.Epochs {
		m := e.Migration
		t.Logf("epoch %2d %-3s reserve=%dMiB +%d/-%d pressure=%d resident=%d breaker=%s skipped=%t empty=%t regskip=%d",
			i+1, e.App, e.Reserve>>20,
			m.PromotedBytes, m.DemotedBytes, m.PressureDemotedBytes,
			m.ResidentBytes, m.Breaker, m.BreakerSkipped, m.DeltaEmpty, m.RegionsSkipped)
	}
	t.Logf("transitions: %s; final=%s; faults=%d", transitionSummary(res.Transitions), res.FinalState, res.FaultEvents)
}

// runAdaptive runs an adaptive-pressure script and judges it by
// adaptiveBars, as the experiment does.
func runAdaptive(t *testing.T, sc Script) *ScriptResult {
	t.Helper()
	res, err := runScript(sc)
	logScriptEpochs(t, res)
	if err == nil {
		err = adaptiveBars(sc, res)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptivePressureConvergence is the fault-free acceptance run: the
// governed runtime follows the BFS→PR hot-set shift under a tightening
// reserve, funds the new hot set by demoting the old one, and converges
// — empty deltas, nothing moving — within DemoteAfterEpochs+2 epochs of
// the reserve settling, staying converged for the rest of the hold
// window (no thrash), with the breaker never moving (adaptiveBars).
// runScript itself asserts validated results, identical-result
// checksums and a leak-free, consistent ledger.
func TestAdaptivePressureConvergence(t *testing.T) {
	runAdaptive(t, adaptiveScript(false))
}

// adaptiveFaultTransitions is the faulted run's breaker log. The
// trajectory is fixed by the governor config and the fault window
// alone (see adaptiveFaultEpochs), not by how many faults fire.
const adaptiveFaultTransitions = "epoch 2 closed→open; epoch 4 open→half-open; epoch 4 half-open→open; " +
	"epoch 7 open→half-open; epoch 7 half-open→open; epoch 12 open→half-open; epoch 12 half-open→closed"

// TestAdaptivePressureBreakerRideThrough is the faulted acceptance run:
// a schedule that fails every staging reservation through epoch 11
// would, without the governor, degrade every single epoch. The breaker
// must open instead, skip epochs while the faults persist, and close
// again via a half-open probe once the storm ends — with the kernels
// running and validating throughout, and the run re-converging
// (adaptiveBars).
func TestAdaptivePressureBreakerRideThrough(t *testing.T) {
	res := runAdaptive(t, adaptiveScript(true))
	if got := transitionSummary(res.Transitions); got != adaptiveFaultTransitions {
		t.Errorf("breaker transitions\n got %s\nwant %s", got, adaptiveFaultTransitions)
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
	sc := adaptiveScript(true)
	sc.TraceDir = dir
	res := runAdaptive(t, sc)
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
