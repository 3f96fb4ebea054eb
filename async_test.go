package atmem

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/memsim"
)

// asyncRuntime builds a governed runtime on the standard NVM-DRAM
// testbed, via the functional-options API.
func asyncRuntime(t *testing.T, extra ...Option) *Runtime {
	t.Helper()
	opts := append([]Option{
		WithSamplePeriod(64),
		WithGovernor(GovernorOptions{}),
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

// TestRunEpochAsyncPipelinesPlacement pins the clock rule's shape: the
// first epoch places its own samples but charges nothing yet, the second
// hides that placement under its phases, and the drain settles the
// tail.
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

	var phaseS float64
	e1 := asyncEpoch(t, rt, ctx, "e1", hot)
	if e1.Overlapped || !e1.Optimized {
		t.Fatalf("first epoch hid a placement or placed nothing: %+v", e1)
	}
	if e1.Samples == 0 || e1.Migration.PromotedBytes == 0 {
		t.Fatalf("first epoch did not place its samples: %+v", e1.Migration)
	}
	for _, p := range e1.Phases {
		phaseS += p.Stats.WallSeconds
	}
	if got := rt.SimSeconds(); got > phaseS+1e-9 {
		t.Errorf("first epoch charged its placement at once: clock %.9fs, phases %.9fs", got, phaseS)
	}

	e2 := asyncEpoch(t, rt, ctx, "e2", hot)
	if !e2.Overlapped {
		t.Fatalf("second epoch did not hide the pending placement: %+v", e2)
	}
	if e2.OverlapSeconds <= 0 {
		t.Errorf("no migration time was hidden under the phases: %+v", e2)
	}
	if e2.StolenSeconds <= 0 || e2.StolenSeconds >= e2.OverlapSeconds {
		t.Errorf("stolen-bandwidth share %.9f out of range (overlap %.9f)",
			e2.StolenSeconds, e2.OverlapSeconds)
	}

	rt.DrainAsync()
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

// TestOverlappedPlacesLikeStopTheWorld pins overlap as a clock rule: one
// single-threaded epoch sequence under a staging-fault storm, a
// corruption order, the scrubber and a mid-run reserve cut, driven once
// through RunEpoch and once through RunEpochAsync, gives every epoch the
// identical placement, phase statistics and health snapshot. The clocks
// differ by exactly the hidden time net of the stolen bandwidth, up to
// one nanosecond of truncation per clock charge.
func TestOverlappedPlacesLikeStopTheWorld(t *testing.T) {
	const epochs, fastCap = 6, 4 << 20
	type epoch struct {
		Migration MigrationReport
		Phases    []PhaseResult
		Health    HealthStats
	}
	run := func(async bool) (out []epoch, reps []EpochReport, simS float64) {
		sched := faultinject.Schedule{Seed: 9, Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 0.3, Err: memsim.ErrNoCapacity},
			{Kind: faultinject.Corrupt, Nth: 3},
		}}
		rt, err := New(govTestbed(fastCap), WithSamplePeriod(64), WithThreads(1),
			WithGovernor(GovernorOptions{}), WithScrubber(), WithFaultSchedule(sched))
		if err != nil {
			t.Fatal(err)
		}
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
		ctx := context.Background()
		for i := 1; i <= epochs; i++ {
			if i == 4 {
				// Leave room for the hot array only.
				rt.SetCapacityReserve(fastCap - 320<<10)
			}
			name := fmt.Sprintf("e%d", i)
			body := func() { scanPhase(rt, name, hot, warm) }
			if i%3 == 0 {
				body = func() { scanPhase(rt, name, warm) }
			}
			var rep EpochReport
			if async {
				rep, err = rt.RunEpochAsync(ctx, name, body)
			} else {
				rep, err = rt.RunEpoch(name, body)
			}
			if err != nil {
				t.Fatalf("epoch %d: %v", i, err)
			}
			reps = append(reps, rep)
			out = append(out, epoch{rep.Migration, rep.Phases, rt.HealthStats()})
		}
		if async {
			rt.DrainAsync()
		}
		if rt.HealthStats().CorruptedChunks == 0 || len(rt.FaultEvents()) == 0 {
			t.Fatalf("the fault storm never fired: %+v", rt.HealthStats())
		}
		assertDataIntact(t, "hot", hot, 3)
		assertDataIntact(t, "warm", warm, 5)
		return out, reps, rt.SimSeconds()
	}
	want, _, syncS := run(false)
	got, reps, asyncS := run(true)
	var moved, pressure uint64
	for i := range want {
		moved += want[i].Migration.BytesMoved
		pressure += want[i].Migration.PressureDemotedBytes
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("epoch %d differs overlapped:\n got %+v\nwant %+v", i+1, got[i], want[i])
		}
	}
	if moved == 0 || pressure == 0 {
		t.Fatalf("moved %d bytes, %d under pressure: the comparison is vacuous", moved, pressure)
	}
	if reps[0].Overlapped || !reps[1].Overlapped {
		t.Errorf("epoch 1 hid a placement or epoch 2 hid none: %v, %v", reps[0].Overlapped, reps[1].Overlapped)
	}
	var hidden float64
	for _, r := range reps {
		hidden += r.OverlapSeconds - r.StolenSeconds
	}
	// Stop-the-world charges each placement once; the overlapped run
	// charges each join once and the drain once.
	slack := float64(2*epochs+1) * 1e-9
	if d := syncS - asyncS; hidden <= 0 || math.Abs(d-hidden) > slack {
		t.Errorf("clock gap %.9fs, want the hidden %.9fs (±%.0e)", d, hidden, slack)
	}
}

// TestAsyncFasterThanSyncWithIdenticalData is the acceptance property in
// unit form: the identical epoch sequence finishes in strictly fewer
// simulated seconds overlapped than stop-the-world, and the data is
// bit-identical afterwards.
func TestAsyncFasterThanSyncWithIdenticalData(t *testing.T) {
	const epochs = 4
	run := func(async bool) (simS float64, resident uint64, check func()) {
		rt, err := New(NVMDRAM(),
			WithSamplePeriod(64),
			WithGovernor(GovernorOptions{}))
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
			rt.DrainAsync()
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
		t.Errorf("modes converged to different residency: async %d vs sync %d", asyncRes, syncRes)
	}
}

// TestAsyncEpochsRunHealthPasses pins that overlapped epochs run the
// epoch health passes like every other epoch: an epoch-driven Corrupt
// order fires at an async epoch's start, that epoch's scrub detects and
// repairs the damage before the kernels run, and every object ends
// bit-identical to a fault-free async run.
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
				// Epoch 1 placed the hot set and epoch 2's end pass
				// snapshotted it; Nth 1 fires at epoch 3.
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
		rt.DrainAsync()
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

	// Epoch 1's placement runs under an already-cancelled context:
	// every region must be skipped without moving a byte.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	e1 := asyncEpoch(t, rt, cancelled, "e1", hot)
	if e1.Samples == 0 || !e1.Optimized {
		t.Fatalf("first epoch did not profile and place: %+v", e1)
	}
	m := e1.Migration
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

	// The next epoch places normally.
	e2 := asyncEpoch(t, rt, context.Background(), "e2", hot)
	if e2.Migration.PromotedBytes == 0 {
		t.Errorf("post-cancellation epoch promoted nothing: %+v", e2.Migration)
	}
}

// TestOverlappedEpochsAreDeterministic pins that an overlapped run is
// reproducible: the placement runs on the caller's goroutine, so two
// runs of one single-threaded epoch sequence under a fault storm, with
// scrubbing on, give identical epoch reports, phase statistics and
// simulated clocks, at GOMAXPROCS 1 and 2.
func TestOverlappedEpochsAreDeterministic(t *testing.T) {
	type outcome struct {
		Epochs []EpochReport
		Phases []PhaseResult
		SimS   float64
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sched := faultinject.Schedule{Seed: 9, Faults: []faultinject.Fault{
			{Op: faultinject.OpReserve, Prob: 0.3, Err: memsim.ErrNoCapacity},
			{Kind: faultinject.Corrupt, Nth: 3},
		}}
		rt := asyncRuntime(t, WithThreads(1), WithScrubber(), WithFaultSchedule(sched))
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
		ctx := context.Background()
		var out outcome
		for i := 0; i < 6; i++ {
			arrays := []*Array[uint64]{hot}
			if i%3 == 2 {
				arrays = []*Array[uint64]{warm}
			}
			out.Epochs = append(out.Epochs, asyncEpoch(t, rt, ctx, fmt.Sprintf("e%d", i+1), arrays...))
		}
		rt.DrainAsync()
		out.Phases, out.SimS = rt.Phases(), rt.SimSeconds()
		if rt.HealthStats().CorruptedChunks == 0 || len(rt.FaultEvents()) == 0 {
			t.Fatalf("the fault storm never fired: %+v", rt.HealthStats())
		}
		return out
	}
	want := run(1)
	var moved uint64
	for _, e := range want.Epochs {
		moved += e.Migration.BytesMoved
	}
	if moved == 0 {
		t.Fatal("no overlapped placement moved a byte")
	}
	for _, procs := range []int{1, 2} {
		if got := run(procs); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: overlapped run differs from the first run:\n got %+v\nwant %+v", procs, got, want)
		}
	}
}

// TestAsyncStressFaultStorm soaks overlapped epochs: their placements
// run while an epoch-windowed fault storm fails half the
// staging reservations, then lifts. Data must stay bit-identical and the
// books consistent. A watchdog converts a deadlock into a stack
// dump instead of a test-suite timeout.
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
		rt.DrainAsync()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("overlapped epochs deadlocked; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
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

// TestAsyncRequiresOption pins that overlapped epochs need no option:
// RunEpochAsync places and DrainAsync settles on a default runtime and
// on a broker tenant alike.
func TestAsyncRequiresOption(t *testing.T) {
	bk := NewBroker(govTestbed(8<<20), BrokerConfig{})
	tn, err := bk.Admit(TenantSpec{Name: "t", Class: ClassGuaranteed, FloorBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default runtime", nil},
		{"broker tenant", []Option{WithTenant(tn)}},
	} {
		rt, err := New(NVMDRAM(), append([]Option{WithSamplePeriod(64)}, tc.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := NewArray[uint64](rt, "hot", 32<<10)
		if err != nil {
			t.Fatal(err)
		}
		rep := asyncEpoch(t, rt, context.Background(), "e1", hot)
		if !rep.Optimized || rep.Migration.PromotedBytes == 0 {
			t.Errorf("%s: overlapped epoch placed nothing: %+v", tc.name, rep.Migration)
		}
		rt.DrainAsync()
		if err := rt.Close(); err != nil {
			t.Errorf("%s: close: %v", tc.name, err)
		}
	}
}

// benchEpochs drives the shared benchmark body and reports simulated
// seconds, the quantity overlapped placement optimizes.
func benchEpochs(b *testing.B, async bool) {
	for i := 0; i < b.N; i++ {
		rt, err := New(NVMDRAM(),
			WithSamplePeriod(64), WithGovernor(GovernorOptions{}))
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
			rt.DrainAsync()
		}
		b.ReportMetric(rt.SimSeconds(), "sim-s/op")
	}
}

func BenchmarkEpochStopTheWorld(b *testing.B) { benchEpochs(b, false) }
func BenchmarkEpochOverlapped(b *testing.B)   { benchEpochs(b, true) }
