package atmem

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/memsim"
)

// asyncRuntime builds a governed runtime with overlapped placement on
// the standard NVM-DRAM testbed, via the functional-options API.
func asyncRuntime(t *testing.T, extra ...Option) *Runtime {
	t.Helper()
	opts := append([]Option{
		WithSamplePeriod(64),
		WithAsyncPlacement(),
	}, extra...)
	rt, err := New(NVMDRAM(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// asyncEpoch runs one overlapped epoch whose body scans the arrays.
func asyncEpoch(t *testing.T, rt *Runtime, ctx context.Context, name string, arrays ...*Array[uint64]) EpochReport {
	t.Helper()
	rep, err := rt.RunEpochAsync(ctx, name, func() { scanPhase(rt, name, arrays...) })
	if err != nil {
		t.Fatalf("async epoch %s: %v", name, err)
	}
	return rep
}

// TestRunEpochAsyncPipelinesPlacement pins the pipeline shape: the first
// epoch only profiles (nothing pending), the second overlaps the first
// interval's plan with its phases, and the drain flushes the tail.
func TestRunEpochAsyncPipelinesPlacement(t *testing.T) {
	rt := asyncRuntime(t)
	ctx := context.Background()
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArray[uint64](rt, "cold", 256<<10); err != nil {
		t.Fatal(err)
	}
	fillDeterministic(hot, 7)

	e1 := asyncEpoch(t, rt, ctx, "e1", hot)
	if e1.Overlapped || e1.Optimized {
		t.Fatalf("first epoch overlapped a placement with nothing pending: %+v", e1)
	}
	if e1.Samples == 0 {
		t.Fatal("first epoch attributed no samples")
	}

	e2 := asyncEpoch(t, rt, ctx, "e2", hot)
	if !e2.Overlapped || !e2.Optimized {
		t.Fatalf("second epoch did not overlap the pending placement: %+v", e2)
	}
	if e2.PlacedFromEpoch != 1 {
		t.Errorf("PlacedFromEpoch = %d, want 1", e2.PlacedFromEpoch)
	}
	if e2.Migration.PromotedBytes == 0 {
		t.Errorf("overlapped placement promoted nothing: %+v", e2.Migration)
	}
	if e2.OverlapSeconds <= 0 {
		t.Errorf("no migration time was hidden under the phases: %+v", e2)
	}
	if e2.StolenSeconds <= 0 || e2.StolenSeconds >= e2.OverlapSeconds {
		t.Errorf("stolen-bandwidth share %.9f out of range (overlap %.9f)",
			e2.StolenSeconds, e2.OverlapSeconds)
	}

	if _, err := rt.DrainAsync(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertDataIntact(t, "after overlapped epochs", hot, 7)
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
	for tr := memsim.Tier(0); tr < memsim.NumTiers; tr++ {
		if res := rt.System().Reserved(tr); res != 0 {
			t.Errorf("leaked %d reserved bytes on %s", res, tr)
		}
	}
}

// TestAsyncFasterThanSyncWithIdenticalData is the acceptance property in
// unit form: the identical epoch sequence finishes in strictly fewer
// simulated seconds overlapped than stop-the-world, and the data is
// bit-identical afterwards.
func TestAsyncFasterThanSyncWithIdenticalData(t *testing.T) {
	const epochs = 4
	run := func(async bool) (simS float64, resident uint64, check func()) {
		var rt *Runtime
		var err error
		if async {
			rt, err = New(NVMDRAM(),
				WithSamplePeriod(64),
				WithAsyncPlacement())
		} else {
			rt, err = New(NVMDRAM(),
				WithSamplePeriod(64),
				WithGovernor(GovernorOptions{}))
		}
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
		fillDeterministic(hot, 41)
		ctx := context.Background()
		for i := 0; i < epochs; i++ {
			name := fmt.Sprintf("e%d", i+1)
			body := func() { scanPhase(rt, name, hot) }
			if async {
				if _, err := rt.RunEpochAsync(ctx, name, body); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := rt.RunEpoch(name, body); err != nil {
					t.Fatal(err)
				}
			}
		}
		if async {
			if _, err := rt.DrainAsync(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return rt.SimSeconds(), rt.ResidentBytes(), func() {
			assertDataIntact(t, "post-run", hot, 41)
			if err := rt.System().CheckConsistency(); err != nil {
				t.Error(err)
			}
		}
	}

	syncS, syncRes, syncCheck := run(false)
	asyncS, asyncRes, asyncCheck := run(true)
	syncCheck()
	asyncCheck()
	if asyncS >= syncS {
		t.Errorf("overlapped epochs not faster: async %.9fs vs sync %.9fs", asyncS, syncS)
	}
	if asyncRes != syncRes {
		t.Errorf("pipelines converged to different residency: async %d vs sync %d", asyncRes, syncRes)
	}
}

// TestAsyncEpochsRunHealthPasses pins that overlapped epochs run the
// epoch health passes like every other epoch: an epoch-driven Corrupt
// order fires at an async epoch's start, that epoch's scrub detects and
// repairs the damage before the kernels run (and before the background
// placement launches), and every object ends bit-identical to a
// fault-free async run.
func TestAsyncEpochsRunHealthPasses(t *testing.T) {
	run := func(faulty bool) (*Runtime, map[uint64]uint32) {
		rt := asyncRuntime(t, WithScrubber())
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
		ctx := context.Background()
		for i := 1; i <= 4; i++ {
			if faulty && i == 3 {
				// Epoch 2 placed epoch 1's hot set in the background and
				// its end pass snapshotted it; Nth 1 fires at epoch 3.
				if hot.Object().FastBytes() == 0 {
					t.Fatal("the hot array was not promoted by epoch 2")
				}
				rt.ArmFaults(faultinject.Fault{
					Kind: faultinject.Corrupt, Nth: 1,
					Base: hot.Object().Base(), Size: hot.Object().Size(),
				})
			}
			asyncEpoch(t, rt, ctx, fmt.Sprintf("e%d", i), hot)
		}
		if _, err := rt.DrainAsync(ctx); err != nil {
			t.Fatal(err)
		}
		if err := rt.System().CheckConsistency(); err != nil {
			t.Error(err)
		}
		return rt, rt.objectChecksums()
	}

	_, clean := run(false)
	rt, faulted := run(true)
	st := rt.HealthStats()
	if st.CorruptedChunks == 0 {
		t.Fatal("the corruption order never fired on an async epoch")
	}
	if st.Scrub.Detections == 0 || st.Scrub.Repairs != st.Scrub.Detections {
		t.Fatalf("scrub did not detect/repair: %+v", st.Scrub)
	}
	if st.Quarantined == 0 {
		t.Errorf("damaged pages not retired: %+v", st)
	}
	if len(clean) == 0 || len(faulted) != len(clean) {
		t.Fatalf("object checksums: %d faulted vs %d clean", len(faulted), len(clean))
	}
	for base, want := range clean {
		if got := faulted[base]; got != want {
			t.Errorf("object at %#x: crc %#x, fault-free run %#x", base, got, want)
		}
	}
}

// TestAsyncCancellationSkipsAndRollsBack pins the context contract: a
// cancelled plan reports its regions skipped, leaves placement and data
// untouched, and does not trip the breaker (cancellation is the
// caller's choice, not a failing migration path).
func TestAsyncCancellationSkipsAndRollsBack(t *testing.T) {
	rt := asyncRuntime(t)
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(hot, 13)

	// Epoch 1 profiles normally.
	e1 := asyncEpoch(t, rt, context.Background(), "e1", hot)
	if e1.Samples == 0 {
		t.Fatal("no samples")
	}
	// Epoch 2's background placement runs under an already-cancelled
	// context: every region must be skipped without moving a byte.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	e2 := asyncEpoch(t, rt, cancelled, "e2", hot)
	if !e2.Overlapped {
		t.Fatalf("second epoch did not overlap: %+v", e2)
	}
	m := e2.Migration
	if m.BytesMoved != 0 {
		t.Errorf("cancelled placement moved %d bytes", m.BytesMoved)
	}
	if m.Regions == 0 || m.RegionsSkipped != m.Regions {
		t.Errorf("cancelled placement outcomes: %d regions, %d skipped", m.Regions, m.RegionsSkipped)
	}
	if st := rt.BreakerState(); st != governor.StateClosed {
		t.Errorf("cancellation tripped the breaker: %s", st)
	}
	if got := rt.ResidentBytes(); got != 0 {
		t.Errorf("cancelled placement left %d resident bytes", got)
	}
	assertDataIntact(t, "after cancelled placement", hot, 13)
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}

	// The same pipeline recovers on an uncancelled epoch.
	e3 := asyncEpoch(t, rt, context.Background(), "e3", hot)
	if e3.Migration.PromotedBytes == 0 {
		t.Errorf("post-cancellation epoch promoted nothing: %+v", e3.Migration)
	}
}

// TestAsyncShootdownReconciliation checks the lazy-invalidation ledger:
// every shootdown the background placements published must be applied by
// every simulated thread exactly once — the per-phase applied counters,
// plus a final flush phase, sum to threads x ShootdownGen.
func TestAsyncShootdownReconciliation(t *testing.T) {
	rt := asyncRuntime(t)
	ctx := context.Background()
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArray[uint64](rt, "cold", 128<<10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		asyncEpoch(t, rt, ctx, fmt.Sprintf("e%d", i+1), hot)
	}
	// A trivial flush phase: RunPhase drains pending shootdowns on every
	// accessor at entry, so ranges published after the last scan still
	// get applied and counted.
	rt.RunPhase("flush", func(c *Ctx) {})

	gen := rt.System().ShootdownGen()
	if gen == 0 {
		t.Fatal("overlapped placements published no shootdowns")
	}
	var applied uint64
	for _, pr := range rt.Phases() {
		applied += pr.Stats.ShootdownsApplied
	}
	want := gen * uint64(rt.Threads())
	if applied != want {
		t.Errorf("shootdown reconciliation: applied %d, want threads(%d) x gen(%d) = %d",
			applied, rt.Threads(), gen, want)
	}
	if _, err := rt.DrainAsync(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncStressFaultStorm soaks the overlapped pipeline under -race:
// epochs run kernels concurrently with background migration while an
// epoch-windowed fault storm fails half the staging reservations, then
// lifts. Data must stay bit-identical and the books consistent. A
// watchdog converts a pipeline deadlock into a stack dump instead of a
// test-suite timeout.
func TestAsyncStressFaultStorm(t *testing.T) {
	sched := faultinject.Schedule{
		Seed: 42,
		Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 0.5, Err: memsim.ErrNoCapacity},
		},
	}
	rt := asyncRuntime(t, WithFaultSchedule(sched))
	ctx := context.Background()
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewArray[uint64](rt, "warm", 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(hot, 3)
	fillDeterministic(warm, 5)

	const epochs, stormEpochs = 6, 3
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < epochs; i++ {
			// Alternate the hot set so the deltas keep migrating in both
			// directions under the storm.
			arrays := []*Array[uint64]{hot}
			if i%2 == 1 {
				arrays = []*Array[uint64]{warm}
			}
			asyncEpoch(t, rt, ctx, fmt.Sprintf("storm-%d", i+1), arrays...)
			if i+1 == stormEpochs {
				rt.DisarmFaults()
			}
		}
		if _, err := rt.DrainAsync(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("overlapped pipeline deadlocked; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}

	assertDataIntact(t, "hot after fault storm", hot, 3)
	assertDataIntact(t, "warm after fault storm", warm, 5)
	if err := rt.System().CheckConsistency(); err != nil {
		t.Error(err)
	}
	for tr := memsim.Tier(0); tr < memsim.NumTiers; tr++ {
		if res := rt.System().Reserved(tr); res != 0 {
			t.Errorf("leaked %d reserved bytes on %s", res, tr)
		}
	}
	if len(rt.FaultEvents()) == 0 {
		t.Error("fault storm never fired")
	}
}

// TestAsyncRequiresOption pins the API contract: RunEpochAsync refuses
// on a governed runtime without Async enabled, and runs once it is.
func TestAsyncRequiresOption(t *testing.T) {
	rt, err := New(NVMDRAM(), WithGovernor(GovernorOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunEpochAsync(context.Background(), "x", func() {}); err == nil {
		t.Error("RunEpochAsync succeeded without Options.Async")
	}
	if _, err := rt.DrainAsync(context.Background()); err == nil {
		t.Error("DrainAsync succeeded without Options.Async")
	}
	rt2, err := New(NVMDRAM(), WithAsyncPlacement())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.RunEpochAsync(context.Background(), "y", func() {}); err != nil {
		t.Errorf("RunEpochAsync with async placement: %v", err)
	}
}

// benchEpochs drives the shared benchmark body and reports simulated
// seconds, the quantity the overlapped pipeline optimizes.
func benchEpochs(b *testing.B, async bool) {
	for i := 0; i < b.N; i++ {
		var rt *Runtime
		var err error
		if async {
			rt, err = New(NVMDRAM(),
				WithSamplePeriod(64), WithAsyncPlacement())
		} else {
			rt, err = New(NVMDRAM(),
				WithSamplePeriod(64), WithGovernor(GovernorOptions{}))
		}
		if err != nil {
			b.Fatal(err)
		}
		hot, err := NewArray[uint64](rt, "hot", 32<<10)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for e := 0; e < 3; e++ {
			name := fmt.Sprintf("e%d", e)
			body := func() {
				rt.RunPhase(name, func(c *Ctx) {
					lo, hi := c.Range(hot.Len())
					for j := lo; j < hi; j++ {
						hot.Load(c, (j*7919)%hot.Len())
					}
				})
			}
			if async {
				if _, err := rt.RunEpochAsync(ctx, name, body); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := rt.RunEpoch(name, body); err != nil {
					b.Fatal(err)
				}
			}
		}
		if async {
			if _, err := rt.DrainAsync(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rt.SimSeconds(), "sim-s/op")
	}
}

func BenchmarkEpochStopTheWorld(b *testing.B) { benchEpochs(b, false) }
func BenchmarkEpochOverlapped(b *testing.B)   { benchEpochs(b, true) }
