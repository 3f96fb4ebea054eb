// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7), one Benchmark per artifact, plus micro-benchmarks of
// the simulator and analyzer hot paths.
//
// The experiment benchmarks share one memoized suite, so related
// artifacts (Figure 5 / Table 3 / Figure 7) execute their underlying
// runs once per `go test -bench` invocation; each benchmark prints the
// regenerated table through b.Log and reports headline metrics via
// b.ReportMetric.
package atmem_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"atmem"
	"atmem/apps"
	"atmem/graph"
	"atmem/internal/core"
	"atmem/internal/harness"
	"atmem/internal/memsim"
	"atmem/internal/pebs"
)

var (
	suiteOnce  sync.Once
	benchSuite *harness.Suite
)

func sharedSuite() *harness.Suite {
	suiteOnce.Do(func() { benchSuite = harness.NewSuite() })
	return benchSuite
}

// runExperiment executes one paper artifact against the shared suite and
// logs its tables.
func runExperiment(b *testing.B, id string) []*harness.Report {
	b.Helper()
	exp, err := harness.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var reports []*harness.Report
	for i := 0; i < b.N; i++ {
		reports, err = exp.Run(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, rep := range reports {
		var sb strings.Builder
		if err := rep.WriteText(&sb); err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + sb.String())
	}
	return reports
}

// parseRatio converts a "1.23x" cell back to a float.
func parseRatio(cell string) float64 {
	var v float64
	if _, err := fmt.Sscanf(cell, "%fx", &v); err != nil {
		return math.NaN()
	}
	return v
}

func BenchmarkFig1a(b *testing.B) {
	reports := runExperiment(b, "fig1a")
	reportMaxRatio(b, reports[0], "slowdown-max")
}

func BenchmarkFig1b(b *testing.B) {
	reports := runExperiment(b, "fig1b")
	reportMaxRatio(b, reports[0], "slowdown-max")
}

// reportMaxRatio publishes the largest ratio cell of a report.
func reportMaxRatio(b *testing.B, rep *harness.Report, metric string) {
	b.Helper()
	maxV := 0.0
	for _, row := range rep.Rows {
		for _, cell := range row[1:] {
			if v := parseRatio(cell); !math.IsNaN(v) && v > maxV {
				maxV = v
			}
		}
	}
	b.ReportMetric(maxV, metric)
}

func BenchmarkFig5(b *testing.B) {
	reports := runExperiment(b, "fig5")
	reportSpeedupColumn(b, reports[0], 5)
}

func BenchmarkFig6(b *testing.B) {
	reports := runExperiment(b, "fig6")
	reportSpeedupColumn(b, reports[0], 5)
}

// reportSpeedupColumn publishes min/max of the atmem-speedup column.
func reportSpeedupColumn(b *testing.B, rep *harness.Report, col int) {
	b.Helper()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range rep.Rows {
		v := parseRatio(row[col])
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	b.ReportMetric(lo, "speedup-min")
	b.ReportMetric(hi, "speedup-max")
}

func BenchmarkTable3(b *testing.B) {
	runExperiment(b, "tab3")
}

func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "fig7")
}

func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8")
}

func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "fig9")
}

func BenchmarkFig10(b *testing.B) {
	runExperiment(b, "fig10")
}

func BenchmarkTable4(b *testing.B) {
	reports := runExperiment(b, "tab4")
	// The last row holds the averages; columns 2 and 4 are time
	// reductions (the paper's 2.07x / 5.32x).
	avg := reports[0].Rows[len(reports[0].Rows)-1]
	if v := parseRatio(avg[2]); !math.IsNaN(v) {
		b.ReportMetric(v, "nvm-time-reduction")
	}
	if v := parseRatio(avg[4]); !math.IsNaN(v) {
		b.ReportMetric(v, "knl-time-reduction")
	}
}

func BenchmarkOverhead(b *testing.B) {
	runExperiment(b, "overhead")
}

// ---- micro-benchmarks of the substrate hot paths ----

// BenchmarkAccessorRandomLoad measures the simulator's per-access cost on
// the random-gather pattern that dominates graph kernels.
func BenchmarkAccessorRandomLoad(b *testing.B) {
	sys := memsim.NewSystem(memsim.NVMDRAMParams())
	base, err := sys.Alloc(8<<20, memsim.TierSlow)
	if err != nil {
		b.Fatal(err)
	}
	acc := sys.NewAccessor()
	span := uint64(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Load(base+(uint64(i)*7919*64)%span, 8)
	}
}

// BenchmarkAccessorStreamLoad measures the sequential-scan fast path.
func BenchmarkAccessorStreamLoad(b *testing.B) {
	sys := memsim.NewSystem(memsim.NVMDRAMParams())
	base, err := sys.Alloc(8<<20, memsim.TierSlow)
	if err != nil {
		b.Fatal(err)
	}
	acc := sys.NewAccessor()
	span := uint64(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Load(base+(uint64(i)*8)%span, 8)
	}
}

// BenchmarkAccessorSeq measures the bulk sequential fast path
// (LoadRange): 8-byte elements streamed across a large buffer, charged
// one pipeline transition per cache line. The metric of record is
// ns/access — simulated element accesses per nanosecond of host time —
// directly comparable with BenchmarkAccessorStreamLoad, the
// element-at-a-time baseline for the same access pattern.
func BenchmarkAccessorSeq(b *testing.B) {
	sys := memsim.NewSystem(memsim.NVMDRAMParams())
	base, err := sys.Alloc(8<<20, memsim.TierSlow)
	if err != nil {
		b.Fatal(err)
	}
	acc := sys.NewAccessor()
	const chunk = 1 << 16 // elements per LoadRange call
	span := uint64(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.LoadRange(base+(uint64(i)*chunk*8)%span, 8, chunk)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/access")
}

// BenchmarkAccessorRandom measures the random-gather pattern through the
// same ns/access metric (each op is one simulated access).
func BenchmarkAccessorRandom(b *testing.B) {
	sys := memsim.NewSystem(memsim.NVMDRAMParams())
	base, err := sys.Alloc(8<<20, memsim.TierSlow)
	if err != nil {
		b.Fatal(err)
	}
	acc := sys.NewAccessor()
	span := uint64(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Load(base+(uint64(i)*7919*64)%span, 8)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchmarkAccessorGather measures the gather accessor on the same
// random pattern as BenchmarkAccessorRandom: 8-byte elements at
// precomputed random indices, charged one gather per 64-index list (a
// neighbour list), reported in ns per simulated access.
func BenchmarkAccessorGather(b *testing.B) {
	sys := memsim.NewSystem(memsim.NVMDRAMParams())
	base, err := sys.Alloc(8<<20, memsim.TierSlow)
	if err != nil {
		b.Fatal(err)
	}
	acc := sys.NewAccessor()
	const list = 64
	idx := make([]uint32, 1<<16)
	for i := range idx {
		idx[i] = uint32(uint64(i) * 7919 * 8 % (1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * list) % len(idx)
		acc.Gather(base, 3, idx[lo:lo+list], true, false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*list), "ns/access")
}

// BenchmarkAccessorStrided measures a 256-byte-stride scan — every
// fourth line, too sparse for stream detection, dense enough for page
// locality.
func BenchmarkAccessorStrided(b *testing.B) {
	sys := memsim.NewSystem(memsim.NVMDRAMParams())
	base, err := sys.Alloc(8<<20, memsim.TierSlow)
	if err != nil {
		b.Fatal(err)
	}
	acc := sys.NewAccessor()
	span := uint64(8 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Load(base+(uint64(i)*256)%span, 8)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchmarkAnalyze measures the two-stage analyzer over a realistic
// registry (5 objects, ~700 chunks).
func BenchmarkAnalyze(b *testing.B) {
	cfg := core.DefaultConfig()
	reg := core.NewRegistry(cfg)
	var samples []pebs.Sample
	base := uint64(1 << 30)
	for obj := 0; obj < 5; obj++ {
		size := uint64(128+obj*32) * cfg.MinChunkBytes
		o, err := reg.Register("obj", base, size)
		if err != nil {
			b.Fatal(err)
		}
		base += size + memsim.HugePage
		for j := 0; j < o.NumChunks; j++ {
			lo, _ := o.ChunkRange(j)
			n := 3
			if j%17 == 0 {
				n = 120
			}
			for k := 0; k < n; k++ {
				samples = append(samples, pebs.Sample{Addr: lo + uint64(k*64)})
			}
		}
	}
	reg.AttributeSamples(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(reg, 64, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreePromotion measures BuildTree+Promote on a 4096-chunk
// object.
func BenchmarkTreePromotion(b *testing.B) {
	critical := make([]bool, 4096)
	for i := range critical {
		critical[i] = i%11 == 0 || (i > 1000 && i < 1200)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := core.BuildTree(critical, 4)
		tree.Promote(0.4, critical)
	}
}

// BenchmarkMigrationEngines measures the two engines' modelled decision
// path (not their modelled time) migrating a 4 MiB region.
func BenchmarkMigrationEngines(b *testing.B) {
	b.Run("atmem", func(b *testing.B) { benchEngine(b, atmem.MigrateATMem) })
	b.Run("mbind", func(b *testing.B) { benchEngine(b, atmem.MigrateMbind) })
}

func benchEngine(b *testing.B, mech atmem.MigrationMechanism) {
	for i := 0; i < b.N; i++ {
		rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithEngine(mech))
		if err != nil {
			b.Fatal(err)
		}
		arr, err := atmem.NewArray[uint64](rt, "x", 512<<10)
		if err != nil {
			b.Fatal(err)
		}
		rt.ProfilingStart()
		rt.RunPhase("touch", func(c *atmem.Ctx) {
			lo, hi := c.Range(arr.Len())
			for j := lo; j < hi; j++ {
				arr.Load(c, (j*7919)%arr.Len())
			}
		})
		rt.ProfilingStop()
		if _, err := rt.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMATGeneration measures the dataset generator.
func BenchmarkRMATGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := graph.GenerateRMAT("bench", graph.DefaultRMAT(14, 8, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelIteration measures one simulated PageRank iteration on
// pokec (the full per-access simulation path under parallel execution).
func BenchmarkKernelIteration(b *testing.B) {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		b.Fatal(err)
	}
	k, err := apps.New("pr")
	if err != nil {
		b.Fatal(err)
	}
	if err := k.Setup(rt, "pokec"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunIteration(rt)
	}
}
