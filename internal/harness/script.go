package harness

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
	"strings"

	"atmem"
	"atmem/apps"
	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/health"
	"atmem/internal/memsim"
	"atmem/internal/telemetry"
)

// This file is the epoch-script runner behind the adaptive-pressure,
// overlap and chaos-soak experiments: a Script is data (kernels,
// reserves, governor, health, fault window), runScript drives it
// through governed epochs on one runtime and checks the books after
// every epoch and at the end, and each experiment judges the results
// with its own bars function. It also holds what every harness session
// shares: the session builder, the books check and the result
// checksum.

// Script is one epoch-scripted scenario on the NVM-DRAM testbed.
type Script struct {
	// Name identifies the script in errors and trace file names.
	Name string
	// Dataset names the input graph every kernel loads.
	Dataset string
	// Governor configures the placement governor; it is always on.
	Governor atmem.GovernorOptions
	// Health, when non-nil, turns on the health scoreboard under this
	// policy and the CRC scrubber.
	Health *health.Policy
	// Async drives the epochs through overlapped background placement
	// (RunEpochAsync, drained after the last epoch) instead of RunEpoch.
	Async bool
	// Steps are the epochs, in order.
	Steps []Step
	// Faults, when non-nil, returns the faults to arm after epoch
	// ArmAfter (0: before the first epoch). It runs on the live
	// runtime, so it can aim at object addresses. The faults are
	// disarmed after epoch DisarmAfter (0: never).
	Faults                func(rt *atmem.Runtime) ([]faultinject.Fault, error)
	ArmAfter, DisarmAfter int
	// TraceDir, when non-empty, records telemetry and writes the trace
	// artifacts there.
	TraceDir string
	// DebugAddr, when non-empty, serves the live debug endpoints
	// (/metrics, /epochz, /healthz, pprof) on this address for the
	// duration of the run; CI's metrics smoke scrapes them mid-run.
	DebugAddr string
}

// Step runs one kernel for a number of epochs. Reserve is the
// fast-tier capacity reserve (0 keeps the runtime default); a non-zero
// RampTo moves it linearly from Reserve towards RampTo, reaching
// RampTo at the step's last epoch.
type Step struct {
	App             string
	Epochs          int
	Reserve, RampTo uint64
}

// reserveAt returns the reserve in force at the step's i-th epoch
// (1-based).
func (st Step) reserveAt(i int) uint64 {
	if st.RampTo == 0 {
		return st.Reserve
	}
	return st.Reserve + (st.RampTo-st.Reserve)*uint64(i)/uint64(st.Epochs)
}

// ScriptEpoch is the record the runner keeps after every epoch. Health
// is the cumulative tier-health snapshot after the epoch.
type ScriptEpoch struct {
	App       string
	Reserve   uint64
	Migration atmem.MigrationReport
	Health    atmem.HealthStats
}

// ScriptResult is the outcome of one script.
type ScriptResult struct {
	Epochs []ScriptEpoch
	// Scorecards holds one placement-quality scorecard per epoch.
	Scorecards []atmem.Scorecard
	// Health is the final tier-health snapshot.
	Health atmem.HealthStats
	// Transitions is the breaker's transition log; FinalState its state
	// after the run.
	Transitions []governor.Transition
	FinalState  governor.State
	// ResidentBytes is the governed fast-resident footprint at the end.
	ResidentBytes uint64
	// FaultEvents counts injector fires over the whole run.
	FaultEvents int
	// TotalSimSeconds is the final simulated clock: iteration time plus
	// the charged share of every migration. OverlapSeconds and
	// StolenSeconds are the overlapped-placement totals (zero without
	// Async).
	TotalSimSeconds, OverlapSeconds, StolenSeconds float64
	// CRC is resultCRC after the run and Ranks a copy of the PR ranks
	// (nil without a pr step); sameResults compares them.
	CRC   uint32
	Ranks []float64
	// TracePath is the written Chrome trace (empty without TraceDir).
	TracePath string
}

// runScript executes the script on a fresh governed runtime. After
// every epoch it records the epoch and checks that no quarantined range
// hosts fast bytes; at the end it checks the books (checkBooks) and
// takes the result checksum. On an error the partial result is
// returned with it.
func runScript(sc Script) (*ScriptResult, error) {
	opts := []atmem.Option{atmem.WithGovernor(sc.Governor)}
	if sc.Health != nil {
		opts = append(opts, atmem.WithScrubber(), atmem.WithHealthPolicy(*sc.Health))
	}
	if sc.Async {
		opts = append(opts, atmem.WithAsyncPlacement())
	}
	if sc.TraceDir != "" {
		opts = append(opts, atmem.WithTelemetry(telemetry.NewRecorder()))
	}
	if sc.DebugAddr != "" {
		opts = append(opts, atmem.WithDebugAddr(sc.DebugAddr))
	}
	var names []string
	for _, st := range sc.Steps {
		if !slices.Contains(names, st.App) {
			names = append(names, st.App)
		}
	}
	rt, kerns, err := newSession(atmem.NVMDRAM(), sc.Dataset, names, opts...)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", sc.Name, err)
	}
	// Close releases the debug listener so the next script can bind
	// the same address.
	defer rt.Close()
	fail := func(format string, args ...any) error {
		return fmt.Errorf("harness: %s epoch %d: "+format, append([]any{sc.Name, rt.Epoch()}, args...)...)
	}

	res := &ScriptResult{}
	ctx := context.Background()
	for _, st := range sc.Steps {
		kern := kerns[slices.Index(names, st.App)]
		for i := 1; i <= st.Epochs; i++ {
			if sc.Faults != nil && rt.Epoch() == sc.ArmAfter {
				faults, err := sc.Faults(rt)
				if err != nil {
					return res, fail("arming faults: %w", err)
				}
				rt.ArmFaults(faults...)
			}
			reserve := st.reserveAt(i)
			if reserve != 0 {
				rt.SetCapacityReserve(reserve)
			}
			name := fmt.Sprintf("%s-%d", st.App, rt.Epoch()+1)
			body := func() { kern.RunIteration(rt) }
			var er atmem.EpochReport
			if sc.Async {
				er, err = rt.RunEpochAsync(ctx, name, body)
			} else {
				er, err = rt.RunEpoch(name, body)
			}
			if err != nil {
				return res, fail("%s: %w", st.App, err)
			}
			// The overlapped pipeline's first epoch legitimately places
			// nothing (no pending interval).
			if !sc.Async && !er.Optimized {
				return res, fail("%s attributed no samples", st.App)
			}
			res.Epochs = append(res.Epochs, ScriptEpoch{App: st.App, Reserve: reserve,
				Migration: er.Migration, Health: rt.HealthStats()})
			if sc.Faults != nil && rt.Epoch() == sc.DisarmAfter {
				rt.DisarmFaults()
			}
			// A retired page never hosts fast bytes again, whatever the
			// governor, the scrubber or a background placement just did.
			for _, qr := range rt.System().QuarantinedRanges() {
				if on := rt.System().BytesOnTier(qr.Base, qr.Size); on[memsim.TierFast] != 0 {
					return res, fail("quarantined range [%#x,+%#x) hosts %d fast bytes",
						qr.Base, qr.Size, on[memsim.TierFast])
				}
			}
		}
	}
	if sc.Async {
		// Place the last interval's samples so the pipeline leaves
		// nothing pending.
		if _, err := rt.DrainAsync(ctx); err != nil {
			return res, fmt.Errorf("harness: %s drain: %w", sc.Name, err)
		}
	}

	res.Scorecards = rt.Scorecards()
	res.Health = rt.HealthStats()
	res.Transitions = rt.BreakerTransitions()
	res.FinalState = rt.BreakerState()
	res.ResidentBytes = rt.ResidentBytes()
	res.FaultEvents = len(rt.FaultEvents())
	res.TotalSimSeconds = rt.SimSeconds()
	res.OverlapSeconds = rt.OverlapSeconds()
	res.StolenSeconds = rt.StolenSeconds()
	if err := checkBooks(rt, kerns...); err != nil {
		return res, fmt.Errorf("harness: %s: %w", sc.Name, err)
	}
	res.CRC = resultCRC(rt)
	for _, k := range kerns {
		if pr, ok := k.(*apps.PageRank); ok {
			res.Ranks = slices.Clone(pr.Ranks())
		}
	}
	if sc.TraceDir != "" {
		res.TracePath, err = writeTraceArtifacts(rt, sc.TraceDir, "nvm-"+sc.Name+"-"+sc.Dataset)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// newSession builds a runtime on tb and sets up one kernel per app on
// dataset, in order. The kernels prefix their object names (bfs.*,
// pr.*), so several share one runtime without collisions.
func newSession(tb atmem.Testbed, dataset string, names []string, opts ...atmem.Option) (*atmem.Runtime, []apps.Kernel, error) {
	rt, err := atmem.New(tb, opts...)
	if err != nil {
		return nil, nil, err
	}
	kerns := make([]apps.Kernel, len(names))
	for i, name := range names {
		k, err := apps.New(name)
		if err == nil {
			err = k.Setup(rt, dataset)
		}
		if err != nil {
			rt.Close()
			return nil, nil, fmt.Errorf("%s setup on %s: %w", name, dataset, err)
		}
		kerns[i] = k
	}
	return rt, kerns, nil
}

// checkBooks is the end-of-run check every session shares: the given
// kernels validate against their references, no staging reservation is
// left on any tier, and the capacity ledger, quarantine included,
// balances.
func checkBooks(rt *atmem.Runtime, kerns ...apps.Kernel) error {
	for _, k := range kerns {
		if err := k.Validate(); err != nil {
			return err
		}
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if leaked := rt.System().Reserved(t); leaked != 0 {
			return fmt.Errorf("leaked %d reserved bytes on %s", leaked, t)
		}
	}
	return rt.System().CheckConsistency()
}

// sameResults decides that two runs of one epoch sequence computed the
// same results: resultCRC bit for bit, and the PR ranks value-wise at
// the kernel's own validation tolerance (atomic float accumulation
// order varies with thread interleaving, so bit-identity is not defined
// for them).
func sameResults(want, got *ScriptResult) error {
	if got.CRC != want.CRC {
		return fmt.Errorf("results diverged: CRC %08x vs %08x", got.CRC, want.CRC)
	}
	if len(got.Ranks) != len(want.Ranks) {
		return fmt.Errorf("rank vector length %d vs %d", len(got.Ranks), len(want.Ranks))
	}
	for v, w := range want.Ranks {
		if g := got.Ranks[v]; math.Abs(g-w) > 1e-12+1e-6*math.Abs(w) {
			return fmt.Errorf("rank[%d] diverged: %g vs %g", v, g, w)
		}
	}
	return nil
}

// resultCRC checksums every deterministic registered object — the
// graph arrays and the kernels' converged integer results — in name
// order. Two runs of the same epoch sequence must produce the same
// value: placement, faults, and healing may never change a single
// result byte. Excluded are the scratch arrays (frontiers, merge
// buffers, claim stamps): the fixed point they drive toward is exact,
// but their residue — which round each vertex was claimed in, what a
// merge buffer held past its final length — depends on thread
// interleaving. The PR rank arrays and BC's accumulators are excluded
// for the same reason at the value level: atomic float adds reorder
// between runs; they are compared value-wise instead (see sameResults)
// and against the serial reference by Validate.
func resultCRC(rt *atmem.Runtime) uint32 {
	objs := rt.Objects()
	sort.Slice(objs, func(i, j int) bool { return objs[i].Name() < objs[j].Name() })
	crc := crc32.NewIEEE()
	for _, o := range objs {
		if scratchObject(o.Name()) {
			continue
		}
		crc.Write(o.Bytes())
	}
	return crc.Sum32()
}

// scratchObject reports whether the named object's bytes are
// interleaving-dependent and must stay out of determinism checksums.
func scratchObject(name string) bool {
	for _, suffix := range []string{".frontier", ".next", ".stamp"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	switch name {
	case "pr.rank", "bc.sigma", "bc.delta", "bc.score":
		return true
	}
	return false
}

// outcome names what an epoch's governed placement did.
func outcome(m atmem.MigrationReport) string {
	switch {
	case m.BreakerSkipped:
		return "skipped"
	case m.DeltaEmpty:
		return "converged"
	case m.RegionsSkipped > 0:
		return "degraded"
	}
	return "moved"
}

// transitionSummary renders a breaker transition log as one cell-safe
// string ("none" when the breaker never moved).
func transitionSummary(trs []governor.Transition) string {
	if len(trs) == 0 {
		return "none"
	}
	parts := make([]string, len(trs))
	for i, tr := range trs {
		parts[i] = fmt.Sprintf("epoch %d %s→%s", tr.Epoch, tr.From, tr.To)
	}
	return strings.Join(parts, "; ")
}
