package harness

import (
	"fmt"
	"slices"
	"strings"

	"atmem"
	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/memsim"
)

// This file holds the adaptive-pressure and overlap scripts: the
// epoch-adaptive governor driven through a workload shift (BFS's hot
// set → PageRank's hot set) on one runtime while the fast-tier budget
// tightens underneath it, with and without injected migration faults,
// stop-the-world or overlapped. It is the end-to-end exercise of the
// governor's three mechanisms — residency deltas, watermark demotion,
// and the circuit breaker — on real kernels.

// adaptiveFaultEpochs bounds the fault storm of the faulted variant.
// The breaker's trajectory under an every-reservation-fails storm is
// fixed by the governor config alone (epochs 1-2 degrade and open it;
// half-open probes at epochs 4 and 7 fail; backoff doubles 1→2→4), so
// disarming after epoch 11 makes the epoch-12 probe the first to run
// fault-free: it succeeds, the breaker closes, and the hold window
// still has a long tail to converge in. An epoch bound — unlike a fire
// budget — is independent of how many regions each degraded epoch's
// staging ladder happens to burn, which varies with profiler
// interleaving (e.g. under -race).
const adaptiveFaultEpochs = 11

// adaptiveScript returns the adaptive-pressure scenario: pokec on the
// NVM-DRAM testbed, three BFS epochs, four PR epochs during which the
// reserve tightens until the two hot sets no longer fit side by side,
// and fourteen PR epochs holding it (the convergence window). The
// faulted variant fails every staging reservation through epoch
// adaptiveFaultEpochs: the breaker must open under the failures and
// close again once probes start succeeding.
func adaptiveScript(faulted bool) Script {
	sc := Script{
		Name:    "adaptive-pressure",
		Dataset: "pokec",
		Governor: atmem.GovernorOptions{
			HighWatermark:     0.90,
			LowWatermark:      0.70,
			DemoteAfterEpochs: 2,
			BreakerThreshold:  2,
			BreakerCooldown:   1,
			MaxCooldown:       4,
		},
		Steps: []Step{
			{App: "bfs", Epochs: 3, Reserve: 92 << 20},
			{App: "pr", Epochs: 4, Reserve: 92 << 20, RampTo: 94 << 20},
			{App: "pr", Epochs: 14, Reserve: 94 << 20},
		},
	}
	if faulted {
		sc.Name += "-faults"
		sc.Faults = func(*atmem.Runtime) ([]faultinject.Fault, error) {
			return []faultinject.Fault{{Op: faultinject.OpReserve, Prob: 1, Err: memsim.ErrNoCapacity}}, nil
		}
		sc.DisarmAfter = adaptiveFaultEpochs
	}
	return sc
}

// holdStart returns the index of the first PR epoch at the final
// (largest) reserve: the start of the convergence window.
func holdStart(eps []ScriptEpoch) int {
	shift := slices.IndexFunc(eps, isPR)
	final := eps[len(eps)-1].Reserve
	return shift + slices.IndexFunc(eps[shift:], func(e ScriptEpoch) bool { return e.Reserve == final })
}

func isPR(e ScriptEpoch) bool { return e.App == "pr" }

// adaptiveBars are the adaptive-pressure acceptance bars. Fault-free,
// the first BFS epoch promotes, the shift to PR needs pressure
// demotion, every epoch from DemoteAfterEpochs+2 epochs after the
// reserve settles (with at least 10 of them) is an empty delta, and the
// breaker never moves. Faulted, the storm fires, the breaker opens,
// skips epochs and closes again through a half-open probe, and the run
// ends converged with the PR hot set resident.
func adaptiveBars(sc Script, res *ScriptResult) error {
	if len(res.Epochs) == 0 {
		return fmt.Errorf("no epochs recorded")
	}
	last := res.Epochs[len(res.Epochs)-1].Migration
	if sc.Faults != nil {
		if res.FaultEvents == 0 {
			return fmt.Errorf("fault schedule never fired")
		}
		log := transitionSummary(res.Transitions)
		if !strings.Contains(log, "closed→open") {
			return fmt.Errorf("breaker never opened under the fault storm: %s", log)
		}
		if !slices.ContainsFunc(res.Epochs, func(e ScriptEpoch) bool { return e.Migration.BreakerSkipped }) {
			return fmt.Errorf("open breaker never skipped an epoch")
		}
		if !strings.Contains(log, "half-open→closed") {
			return fmt.Errorf("breaker never closed again after the faults stopped: %s", log)
		}
		if res.FinalState != governor.StateClosed {
			return fmt.Errorf("final breaker state %s, want closed", res.FinalState)
		}
		if !last.DeltaEmpty || last.ResidentBytes == 0 {
			return fmt.Errorf("faulted run did not re-converge: empty=%t resident=%d", last.DeltaEmpty, last.ResidentBytes)
		}
		return nil
	}
	if res.Epochs[0].Migration.PromotedBytes == 0 {
		return fmt.Errorf("first BFS epoch promoted nothing")
	}
	shift := slices.IndexFunc(res.Epochs, isPR)
	if shift < 0 || !slices.ContainsFunc(res.Epochs[shift:], func(e ScriptEpoch) bool { return e.Migration.PressureDemotedBytes > 0 }) {
		return fmt.Errorf("no epoch used pressure demotion: the shift never oversubscribed the watermarks")
	}
	settle := holdStart(res.Epochs) + sc.Governor.DemoteAfterEpochs + 2
	if tail := len(res.Epochs) - settle; tail < 10 {
		return fmt.Errorf("only %d epochs after the settle window, need >= 10", tail)
	}
	for i, e := range res.Epochs[settle:] {
		if m := e.Migration; !m.DeltaEmpty || m.BytesMoved != 0 {
			return fmt.Errorf("epoch %d after the settle window not converged: empty=%t moved=%d",
				settle+i+1, m.DeltaEmpty, m.BytesMoved)
		}
	}
	if len(res.Transitions) != 0 || res.FinalState != governor.StateClosed {
		return fmt.Errorf("fault-free run moved the breaker: %s (final %s)",
			transitionSummary(res.Transitions), res.FinalState)
	}
	return nil
}

// adaptivePressure is the experiment wrapper: the fault-free and the
// faulted script, each judged by adaptiveBars and rendered as one row
// per epoch.
func adaptivePressure(s *Suite) ([]*Report, error) {
	titles := map[bool]string{
		false: "Epoch-adaptive governor: BFS→PR hot-set shift under a tightening fast-tier reserve (NVM-DRAM)",
		true:  "Same scenario with every staging reservation failing through epoch 11",
	}
	var out []*Report
	for _, faulted := range []bool{false, true} {
		sc := adaptiveScript(faulted)
		sc.TraceDir, sc.DebugAddr = s.TraceDir, s.DebugAddr
		res, err := runScript(sc)
		if err == nil {
			err = adaptiveBars(sc, res)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", sc.Name, err)
		}
		rep := &Report{
			ID:    sc.Name,
			Title: titles[faulted],
			Columns: []string{"epoch", "workload", "reserve(MiB)", "iter(s)",
				"promoted", "demoted", "pressure", "resident", "breaker", "outcome",
				"fast-share", "ovh-tax"},
		}
		for i, e := range res.Epochs {
			m, card := e.Migration, res.Scorecards[i]
			rep.AddRow(
				fmt.Sprintf("%d", i+1), e.App,
				fmt.Sprintf("%d", e.Reserve>>20),
				secs(card.PhaseSeconds),
				fmt.Sprintf("%d", m.PromotedBytes),
				fmt.Sprintf("%d", m.DemotedBytes),
				fmt.Sprintf("%d", m.PressureDemotedBytes),
				fmt.Sprintf("%d", m.ResidentBytes),
				m.Breaker, outcome(m),
				fmt.Sprintf("%.3f", card.FastAccessShare),
				fmt.Sprintf("%.4f", card.OverheadTax))
		}
		last := res.Scorecards[len(res.Scorecards)-1]
		rep.AddNote("breaker transitions: %s; final state %s; %d fault fires; results validated across all %d epochs",
			transitionSummary(res.Transitions), res.FinalState, res.FaultEvents, len(res.Epochs))
		rep.AddNote("steady-state scorecard: fast-access share %.3f, fast-residency efficiency %.3f, migration efficiency %.2f, overhead tax %.4f",
			last.FastAccessShare, last.FastResidencyEfficiency, last.MigrationEfficiency, last.OverheadTax)
		out = append(out, rep)
	}
	return out, nil
}

// overlapBars are the overlap experiment's bars against the
// stop-the-world run: the fault-free overlapped run (when given)
// finishes in strictly fewer simulated seconds, and every run computes
// the same results.
func overlapBars(sync, async, faulted *ScriptResult) error {
	if async != nil {
		if async.TotalSimSeconds >= sync.TotalSimSeconds {
			return fmt.Errorf("overlapped placement (%.9fs) not faster than stop-the-world (%.9fs)",
				async.TotalSimSeconds, sync.TotalSimSeconds)
		}
		if err := sameResults(sync, async); err != nil {
			return fmt.Errorf("overlapped: %w", err)
		}
	}
	if faulted != nil {
		if err := sameResults(sync, faulted); err != nil {
			return fmt.Errorf("overlapped under faults: %w", err)
		}
	}
	return nil
}

// overlapScripts returns the overlap experiment's three modes: the
// adaptive-pressure script stop-the-world, overlapped, and overlapped
// under the fault storm.
func overlapScripts() (sync, async, faulted Script) {
	sync, async, faulted = adaptiveScript(false), adaptiveScript(false), adaptiveScript(true)
	sync.Name, async.Name, faulted.Name = "overlap-stop-the-world", "overlap-overlapped", "overlap-overlapped-faults"
	async.Async, faulted.Async = true, true
	return sync, async, faulted
}

// overlapComparison is the overlapped-vs-stop-the-world experiment: the
// three overlap modes, judged by overlapBars.
func overlapComparison(s *Suite) ([]*Report, error) {
	rep := &Report{
		ID:    "overlap",
		Title: "Overlapped background placement vs stop-the-world epochs (adaptive-pressure scenario, NVM-DRAM)",
		Columns: []string{"mode", "epochs", "total-sim(s)", "overlap(s)",
			"stolen(s)", "resident", "breaker", "data-crc"},
	}
	sync, async, faulted := overlapScripts()
	var res [3]*ScriptResult
	for i, sc := range []Script{sync, async, faulted} {
		sc.TraceDir, sc.DebugAddr = s.TraceDir, s.DebugAddr
		r, err := runScript(sc)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", sc.Name, err)
		}
		res[i] = r
		rep.AddRow(strings.TrimPrefix(sc.Name, "overlap-"),
			fmt.Sprintf("%d", len(r.Epochs)),
			secs(r.TotalSimSeconds),
			secs(r.OverlapSeconds),
			secs(r.StolenSeconds),
			fmt.Sprintf("%d", r.ResidentBytes),
			r.FinalState.String(),
			fmt.Sprintf("%08x", r.CRC))
	}
	if err := overlapBars(res[0], res[1], res[2]); err != nil {
		return nil, fmt.Errorf("harness: overlap: %w", err)
	}
	syncS, asyncS := res[0].TotalSimSeconds, res[1].TotalSimSeconds
	rep.AddNote("overlapped placement hides migration under running kernels: %.6fs vs %.6fs stop-the-world (%.2f%% faster); results identical across all modes",
		asyncS, syncS, 100*(syncS-asyncS)/syncS)
	return []*Report{rep}, nil
}
