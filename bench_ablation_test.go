// Ablation benchmarks for the design choices DESIGN.md §6 calls out:
// each one removes or distorts a single mechanism and reports how the
// placement decision and the resulting performance change, on PageRank /
// twitter on the NVM-DRAM testbed.
package atmem_test

import (
	"testing"

	"atmem"
	"atmem/apps"
	"atmem/internal/core"
)

// ablationRun executes the full pipeline under the given analyzer config
// and reports (measured iteration seconds, data ratio, migrated regions).
func ablationRun(b *testing.B, cfg core.Config) (float64, float64, int) {
	b.Helper()
	rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithAnalyzer(cfg))
	if err != nil {
		b.Fatal(err)
	}
	k, err := apps.New("pr")
	if err != nil {
		b.Fatal(err)
	}
	if err := k.Setup(rt, "twitter"); err != nil {
		b.Fatal(err)
	}
	rt.ProfilingStart()
	k.RunIteration(rt)
	rt.ProfilingStop()
	rep, err := rt.Optimize()
	if err != nil {
		b.Fatal(err)
	}
	k.RunIteration(rt) // warm
	secs := k.RunIteration(rt).Seconds
	return secs, rep.DataRatio(), rep.Regions
}

// BenchmarkAblationTreePromotion compares the default analyzer against
// one whose tree promotion can never fire (base TR threshold 1 with
// ε ≈ 1), quantifying §4.3's patching of sampling gaps.
func BenchmarkAblationTreePromotion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withCfg := core.DefaultConfig()
		tWith, ratioWith, regionsWith := ablationRun(b, withCfg)

		withoutCfg := core.DefaultConfig()
		withoutCfg.BaseTRThreshold = 1
		withoutCfg.Epsilon = 0.999999
		tWithout, _, regionsWithout := ablationRun(b, withoutCfg)

		b.ReportMetric(tWithout/tWith, "speedup-from-promotion")
		b.ReportMetric(float64(regionsWithout)/float64(max(regionsWith, 1)), "region-inflation")
		b.ReportMetric(100*ratioWith, "ratio-%")
	}
}

// BenchmarkAblationChunkGranularity sweeps the adaptive chunk target
// (§4.1): coarser chunks mean less metadata but blunter placement.
func BenchmarkAblationChunkGranularity(b *testing.B) {
	for _, target := range []int{16, 64, 256, 1024} {
		b.Run(map[int]string{16: "coarse16", 64: "chunks64", 256: "default256", 1024: "fine1024"}[target],
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := core.DefaultConfig()
					cfg.TargetChunksPerObject = target
					secs, ratio, _ := ablationRun(b, cfg)
					b.ReportMetric(secs*1e6, "iter-us")
					b.ReportMetric(100*ratio, "ratio-%")
				}
			})
	}
}

// BenchmarkAblationTreeArity sweeps m (§4.3.1): the paper notes a
// quad-tree offers more tree-ratio resolution than a binary tree.
func BenchmarkAblationTreeArity(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "binary", 4: "quad", 8: "oct"}[m], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.M = m
				cfg.Epsilon = 0.25 // hold ε fixed across arities
				secs, ratio, regions := ablationRun(b, cfg)
				b.ReportMetric(secs*1e6, "iter-us")
				b.ReportMetric(100*ratio, "ratio-%")
				b.ReportMetric(float64(regions), "regions")
			}
		})
	}
}

// BenchmarkAblationSamplingPeriod sweeps the profiler period (§5.1's
// overhead/accuracy trade-off) and reports where the selection lands.
func BenchmarkAblationSamplingPeriod(b *testing.B) {
	for _, period := range []uint64{16, 256, 4096} {
		b.Run(map[uint64]string{16: "fine16", 256: "mid256", 4096: "coarse4096"}[period],
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithSamplePeriod(period))
					if err != nil {
						b.Fatal(err)
					}
					k, err := apps.New("pr")
					if err != nil {
						b.Fatal(err)
					}
					if err := k.Setup(rt, "twitter"); err != nil {
						b.Fatal(err)
					}
					rt.ProfilingStart()
					k.RunIteration(rt)
					samples := rt.ProfilingStop()
					rep, err := rt.Optimize()
					if err != nil {
						b.Fatal(err)
					}
					k.RunIteration(rt)
					secs := k.RunIteration(rt).Seconds
					b.ReportMetric(secs*1e6, "iter-us")
					b.ReportMetric(100*rep.DataRatio(), "ratio-%")
					b.ReportMetric(float64(samples), "samples")
				}
			})
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkBFSVariants compares plain push BFS against the
// direction-optimizing hybrid on the baseline placement: the hybrid's
// bottom-up rounds avoid most of the high-frontier edge traffic.
func BenchmarkBFSVariants(b *testing.B) {
	for _, name := range []string{"bfs", "dobfs"} {
		b.Run(name, func(b *testing.B) {
			rt, err := atmem.New(atmem.NVMDRAM())
			if err != nil {
				b.Fatal(err)
			}
			k, err := apps.New(name)
			if err != nil {
				b.Fatal(err)
			}
			if err := k.Setup(rt, "twitter"); err != nil {
				b.Fatal(err)
			}
			var secs float64
			for i := 0; i < b.N; i++ {
				secs = k.RunIteration(rt).Seconds
			}
			b.ReportMetric(secs*1e6, "sim-us")
		})
	}
}

// BenchmarkExtensionExperiments regenerates the three extension
// artifacts (accuracy, locality, aggbw) against the shared suite.
func BenchmarkExtensionExperiments(b *testing.B) {
	for _, id := range []string{"accuracy", "locality", "aggbw"} {
		b.Run(id, func(b *testing.B) {
			runExperiment(b, id)
		})
	}
}
