package memsim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The sharded hot path exists so simulation throughput scales with host
// cores: every per-access touch is accessor-private (counters, caches,
// TLBs, sample buffers), and nothing shared is touched per access.
// BenchmarkAccessorParallel sweeps
// GOMAXPROCS to expose the scaling curve, and the efficiency test holds
// the floor on machines with enough cores.

// parallelWorkers builds one shared system with a 4 MiB slow-tier object
// and one accessor per worker — the shape of a governed phase.
func parallelWorkers(tb testing.TB, workers int) (*System, []*Accessor, []uint64) {
	tb.Helper()
	s := NewSystem(testParams())
	accs := make([]*Accessor, workers)
	bases := make([]uint64, workers)
	for i := range accs {
		base, err := s.Alloc(4*MiB, TierSlow)
		if err != nil {
			tb.Fatal(err)
		}
		accs[i] = s.NewAccessor()
		bases[i] = base
	}
	return s, accs, bases
}

// parallelWorkload drives one worker: a graph-kernel-like mix of random
// single accesses and short sequential runs over the worker's region.
func parallelWorkload(a *Accessor, base uint64, ops int, seed uint64) {
	rng := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	span := uint64(4*MiB - 64*KiB)
	for i := 0; i < ops; i++ {
		r := next()
		addr := base + r%span
		switch r % 8 {
		case 0:
			a.StoreRange(addr, 8, 64)
		case 1:
			a.LoadRange(addr, 8, 256)
		case 2:
			a.Store(addr, 8)
		default:
			a.Load(addr, 8)
		}
	}
}

// runParallel executes the workload on every worker concurrently and
// returns total simulated accesses and elapsed host time.
func runParallel(accs []*Accessor, bases []uint64, opsPerWorker int) (uint64, time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range accs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parallelWorkload(accs[i], bases[i], opsPerWorker, uint64(i+1))
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total uint64
	for _, a := range accs {
		total += a.Accesses
	}
	return total, elapsed
}

// BenchmarkAccessorParallel sweeps host parallelism over a fixed gang of
// 8 simulated threads: near-linear accesses/sec growth up to the
// machine's core count is the sharding contract. Metric of record:
// simacc/s (simulated accesses per host second).
func BenchmarkAccessorParallel(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			_, accs, bases := parallelWorkers(b, 8)
			b.ResetTimer()
			var total uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				for _, a := range accs {
					a.ResetCounters()
				}
				n, d := runParallel(accs, bases, 4096)
				total += n
				elapsed += d
			}
			b.ReportMetric(float64(total)/elapsed.Seconds(), "simacc/s")
			b.ReportMetric(elapsed.Seconds()*1e9/float64(total), "ns/simacc")
		})
	}
}

// TestParallelScalingEfficiency holds the scaling floor: with 4 host
// cores, 4 workers must reach at least 70% parallel efficiency (≥ 2.8x
// the single-core throughput). Guarded for short runs and skipped on
// hosts without enough cores, where the measurement is meaningless.
func TestParallelScalingEfficiency(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("needs >= 4 host cores, have %d", runtime.NumCPU())
	}
	const workers, ops = 4, 1 << 15
	measure := func(procs int) float64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		best := 0.0
		for trial := 0; trial < 3; trial++ {
			_, accs, bases := parallelWorkers(t, workers)
			n, d := runParallel(accs, bases, ops)
			if tput := float64(n) / d.Seconds(); tput > best {
				best = tput
			}
		}
		return best
	}
	t1 := measure(1)
	t4 := measure(4)
	eff := t4 / (4 * t1)
	t.Logf("throughput: 1 core %.3g acc/s, 4 cores %.3g acc/s, efficiency %.1f%%", t1, t4, eff*100)
	if eff < 0.70 {
		t.Errorf("parallel efficiency %.1f%% below the 70%% floor (1-core %.3g, 4-core %.3g acc/s)",
			eff*100, t1, t4)
	}
}
