package atmem

import (
	"testing"

	"atmem/internal/memsim"
)

func newTestRuntime(t *testing.T, opts ...Option) *Runtime {
	t.Helper()
	rt, err := New(NVMDRAM(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestMallocFree(t *testing.T) {
	rt := newTestRuntime(t)
	obj, err := rt.Malloc("buf", 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Size() != 128<<10 || obj.Name() != "buf" {
		t.Errorf("object %s/%d", obj.Name(), obj.Size())
	}
	if obj.NumChunks() <= 0 || obj.ChunkSize() == 0 {
		t.Error("no chunking")
	}
	if len(rt.Objects()) != 1 {
		t.Error("object not listed")
	}
	if err := rt.Free(obj); err != nil {
		t.Fatal(err)
	}
	if len(rt.Objects()) != 0 {
		t.Error("object still listed after free")
	}
	if err := rt.Free(obj); err == nil {
		t.Error("double free accepted")
	}
}

func TestPolicyPlacement(t *testing.T) {
	cases := []struct {
		policy PlacementPolicy
		fast   bool
	}{
		{PaperPolicy(), false},
		{AllFastPolicy(), true},
		{PreferFastPolicy(), true},
	}
	for _, c := range cases {
		rt := newTestRuntime(t, WithPlacementPolicy(c.policy))
		obj, err := rt.Malloc("x", 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", c.policy.Name(), err)
		}
		onFast := obj.FastBytes() == obj.Size()
		if onFast != c.fast {
			t.Errorf("%s: fastBytes=%d of %d", c.policy.Name(), obj.FastBytes(), obj.Size())
		}
	}
}

func TestPreferFastSpills(t *testing.T) {
	rt := newTestRuntime(t, WithPlacementPolicy(PreferFastPolicy()))
	cap := rt.Testbed().Params().Tiers[memsim.TierFast].CapacityBytes
	big, err := rt.Malloc("big", cap+(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	if big.FastBytes() == 0 || big.FastBytes() == big.Size() {
		t.Errorf("expected a split placement, fast=%d of %d", big.FastBytes(), big.Size())
	}
}

// A solo prefer-fast runtime charges its sub-ledger whole mapped pages,
// the bytes the fast tier's capacity counts, and Close frees a spilled
// object whose size is not a huge-page multiple, which maps only 4 KiB
// pages past its huge-aligned base.
func TestCloseFreesSpilledObject(t *testing.T) {
	rt, err := New(govTestbed(4<<20), WithPlacementPolicy(PreferFastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	sys := rt.System()
	if _, err := rt.Malloc("whole", 1<<20+100); err != nil {
		t.Fatal(err)
	}
	spilled, err := rt.Malloc("spilled", 3<<20+100)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.FastBytes() == 0 || spilled.FastBytes() == spilled.Size() {
		t.Fatalf("expected a split placement, fast=%d of %d", spilled.FastBytes(), spilled.Size())
	}
	if got, want := sys.TenantUsage(rt.tenant.ID()).FastBytes, sys.Used(memsim.TierFast); got != want {
		t.Errorf("sub-ledger fast bytes = %d, want the tier's mapped %d", got, want)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sys.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if f, s := sys.Used(memsim.TierFast), sys.Used(memsim.TierSlow); f != 0 || s != 0 {
		t.Errorf("used after Close: fast %d, slow %d", f, s)
	}
}

func TestArrayLoadStoreRoundTrip(t *testing.T) {
	rt := newTestRuntime(t)
	arr, err := NewArray[float64](rt, "vals", 1000)
	if err != nil {
		t.Fatal(err)
	}
	rt.RunPhase("write", func(c *Ctx) {
		lo, hi := c.Range(arr.Len())
		for i := lo; i < hi; i++ {
			arr.Store(c, i, float64(i)*1.5)
		}
	})
	var bad int
	rt.RunPhase("read", func(c *Ctx) {
		lo, hi := c.Range(arr.Len())
		for i := lo; i < hi; i++ {
			if arr.Load(c, i) != float64(i)*1.5 {
				bad++
			}
		}
	})
	if bad != 0 {
		t.Errorf("%d corrupted elements", bad)
	}
}

func TestArrayAddrWithinObject(t *testing.T) {
	rt := newTestRuntime(t)
	arr, err := NewArray[uint32](rt, "a", 100)
	if err != nil {
		t.Fatal(err)
	}
	base := arr.Object().Base()
	if arr.Addr(0) != base {
		t.Error("first element address != object base")
	}
	if arr.Addr(99) != base+99*4 {
		t.Error("element addressing wrong")
	}
	if arr.ElemSize() != 4 {
		t.Errorf("elem size %d", arr.ElemSize())
	}
}

func TestRunPhaseAggregatesThreads(t *testing.T) {
	rt := newTestRuntime(t)
	arr, err := NewArray[uint64](rt, "x", 10000)
	if err != nil {
		t.Fatal(err)
	}
	pr := rt.RunPhase("touch", func(c *Ctx) {
		lo, hi := c.Range(arr.Len())
		for i := lo; i < hi; i++ {
			arr.Load(c, i)
		}
	})
	if pr.Stats.Accesses != 10000 {
		t.Errorf("accesses %d, want 10000", pr.Stats.Accesses)
	}
	if pr.Seconds() <= 0 {
		t.Error("no simulated time")
	}
	if len(rt.Phases()) != 1 || rt.Phases()[0].Name != "touch" {
		t.Error("phase not recorded")
	}
	if pr.String() == "" {
		t.Error("empty PhaseResult string")
	}
}

func TestProfilingLifecycle(t *testing.T) {
	rt := newTestRuntime(t)
	arr, err := NewArray[uint64](rt, "hot", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProfilingStart()
	if rt.SamplePeriod() == 0 {
		t.Error("no sampling period")
	}
	rt.RunPhase("work", func(c *Ctx) {
		lo, hi := c.Range(arr.Len())
		for rep := 0; rep < 4; rep++ {
			for i := lo; i < hi; i++ {
				arr.Load(c, (i*7919)%arr.Len())
			}
		}
	})
	n := rt.ProfilingStop()
	if n == 0 {
		t.Fatal("no samples attributed")
	}
	if rt.SampleCount() < n {
		t.Error("sample count below attributed count")
	}
}

func TestOptimizeWithoutProfilingFails(t *testing.T) {
	rt := newTestRuntime(t)
	if _, err := rt.Malloc("x", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Optimize(); err == nil {
		t.Error("Optimize without samples accepted")
	}
}

func TestOptimizeMovesHotData(t *testing.T) {
	rt := newTestRuntime(t)
	hot, err := NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewArray[uint64](rt, "cold", 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	run := func() PhaseResult {
		return rt.RunPhase("work", func(c *Ctx) {
			lo, hi := c.Range(hot.Len())
			for rep := 0; rep < 8; rep++ {
				for i := lo; i < hi; i++ {
					hot.Load(c, (i*7919)%hot.Len())
				}
			}
			// One pass over cold data.
			clo, chi := c.Range(cold.Len())
			for i := clo; i < chi; i++ {
				cold.Load(c, (i*104729)%cold.Len())
			}
		})
	}
	rt.ProfilingStart()
	before := run()
	rt.ProfilingStop()
	rep, err := rt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesMoved == 0 {
		t.Fatal("nothing migrated")
	}
	if hot.Object().FastBytes() != hot.Object().Size() {
		t.Errorf("hot array only %d/%d on fast memory",
			hot.Object().FastBytes(), hot.Object().Size())
	}
	run() // warm
	after := run()
	if after.Seconds() >= before.Seconds() {
		t.Errorf("no speedup: before %v, after %v", before.Seconds(), after.Seconds())
	}
	if rt.Plan() == nil {
		t.Error("plan not retained")
	}
	if rt.FastDataRatio() <= 0 {
		t.Error("fast data ratio not positive")
	}
	if rt.LastMigration().Engine == "" {
		t.Error("migration report missing engine")
	}
	if len(rt.PlacementSummary()) != 2 {
		t.Error("placement summary incomplete")
	}
}

func TestOptimizePreservesData(t *testing.T) {
	rt := newTestRuntime(t)
	arr, err := NewArray[uint64](rt, "data", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arr.Len(); i++ {
		arr.Raw()[i] = uint64(i) * 31
	}
	rt.ProfilingStart()
	rt.RunPhase("touch", func(c *Ctx) {
		lo, hi := c.Range(arr.Len())
		for rep := 0; rep < 4; rep++ {
			for i := lo; i < hi; i++ {
				arr.Load(c, (i*7919)%arr.Len())
			}
		}
	})
	rt.ProfilingStop()
	if _, err := rt.Optimize(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arr.Len(); i++ {
		if arr.Raw()[i] != uint64(i)*31 {
			t.Fatalf("element %d corrupted after migration", i)
		}
	}
}

func TestMbindMechanismSelectable(t *testing.T) {
	rt := newTestRuntime(t, WithEngine(MigrateMbind))
	arr, err := NewArray[uint64](rt, "x", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProfilingStart()
	rt.RunPhase("touch", func(c *Ctx) {
		lo, hi := c.Range(arr.Len())
		for rep := 0; rep < 4; rep++ {
			for i := lo; i < hi; i++ {
				arr.Load(c, (i*7919)%arr.Len())
			}
		}
	})
	rt.ProfilingStop()
	rep, err := rt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "mbind" {
		t.Errorf("engine %q", rep.Engine)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestCapacityReserveLimitsBudget(t *testing.T) {
	tb := NVMDRAM()
	p := tb.Params()
	rt, err := New(CustomTestbed(p),
		WithCapacityReserve(p.Tiers[memsim.TierFast].CapacityBytes)) // reserve everything
	if err != nil {
		t.Fatal(err)
	}
	arr, err := NewArray[uint64](rt, "x", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProfilingStart()
	rt.RunPhase("touch", func(c *Ctx) {
		lo, hi := c.Range(arr.Len())
		for rep := 0; rep < 4; rep++ {
			for i := lo; i < hi; i++ {
				arr.Load(c, (i*7919)%arr.Len())
			}
		}
	})
	rt.ProfilingStop()
	rep, err := rt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SelectedBytes != 0 || rep.BytesMoved != 0 {
		t.Errorf("fully-reserved budget still selected %d/%d bytes",
			rep.SelectedBytes, rep.BytesMoved)
	}
}

func TestFixedSamplePeriodHonored(t *testing.T) {
	rt := newTestRuntime(t, WithSamplePeriod(333))
	if _, err := rt.Malloc("x", 1<<20); err != nil {
		t.Fatal(err)
	}
	rt.ProfilingStart()
	if rt.SamplePeriod() != 333 {
		t.Errorf("period %d, want 333", rt.SamplePeriod())
	}
}

func TestThreadsOverride(t *testing.T) {
	rt := newTestRuntime(t, WithThreads(3))
	if rt.Threads() != 3 {
		t.Errorf("threads %d", rt.Threads())
	}
	ids := make(map[int]bool)
	done := make(chan int, 3)
	rt.RunPhase("count", func(c *Ctx) {
		done <- c.ID
	})
	close(done)
	for id := range done {
		ids[id] = true
	}
	if len(ids) != 3 {
		t.Errorf("distinct thread ids %d", len(ids))
	}
}

func TestNewValidation(t *testing.T) {
	p := NVMDRAM().Params()
	p.ClockGHz = 0
	if _, err := New(CustomTestbed(p)); err == nil {
		t.Error("invalid testbed accepted")
	}
}

func TestStringers(t *testing.T) {
	for _, m := range []MigrationMechanism{MigrateATMem, MigrateMbind, MigrationMechanism(9)} {
		if m.String() == "" {
			t.Error("empty mechanism string")
		}
	}
	if NVMDRAM().Name() != "nvm-dram" || MCDRAMDRAM().Name() != "mcdram-dram" {
		t.Error("testbed names")
	}
}

func TestObjectBytesLazy(t *testing.T) {
	rt := newTestRuntime(t)
	obj, err := rt.Malloc("raw", 4096)
	if err != nil {
		t.Fatal(err)
	}
	b := obj.Bytes()
	if len(b) != 4096 {
		t.Errorf("backing length %d", len(b))
	}
	b[0] = 7
	if obj.Bytes()[0] != 7 {
		t.Error("backing not stable")
	}
}

func TestCtxRangePartition(t *testing.T) {
	c := &Ctx{ID: 1, NumThreads: 4}
	lo, hi := c.Range(10)
	if lo != 3 || hi != 6 {
		t.Errorf("Range = [%d,%d)", lo, hi)
	}
	c = &Ctx{ID: 3, NumThreads: 4}
	lo, hi = c.Range(10)
	if lo != 9 || hi != 10 {
		t.Errorf("tail Range = [%d,%d)", lo, hi)
	}
	// Past-the-end threads get empty ranges.
	c = &Ctx{ID: 3, NumThreads: 4}
	lo, hi = c.Range(3)
	if lo != hi {
		t.Errorf("overflow Range = [%d,%d)", lo, hi)
	}
}

func TestArrayFillAndFree(t *testing.T) {
	rt := newTestRuntime(t)
	arr, err := NewArray[int32](rt, "f", 128)
	if err != nil {
		t.Fatal(err)
	}
	arr.Fill(-1)
	for _, v := range arr.Raw() {
		if v != -1 {
			t.Fatal("fill incomplete")
		}
	}
	if err := arr.Free(); err != nil {
		t.Fatal(err)
	}
	if len(rt.Objects()) != 0 {
		t.Error("array object leaked")
	}
}
