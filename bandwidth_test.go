package atmem

import (
	"testing"

	"atmem/internal/core"
	"atmem/internal/memsim"
	"atmem/internal/pebs"
)

// planFixture builds a plan with two ranges of different densities.
func planFixture(t *testing.T) *core.Plan {
	t.Helper()
	cfg := core.DefaultConfig()
	reg := core.NewRegistry(cfg)
	o, err := reg.Register("obj", 1<<30, 16*cfg.MinChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	// A second, cold object gives the global stage a comparison class.
	cold, err := reg.Register("cold", 1<<31, 16*cfg.MinChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	var samples []pebs.Sample
	addChunk := func(obj *core.DataObject, j, count int) {
		lo, _ := obj.ChunkRange(j)
		for k := 0; k < count; k++ {
			samples = append(samples, pebs.Sample{Addr: lo + uint64(k*64)})
		}
	}
	// Dense region: chunks 0-1; sparse-but-selected region: chunk 8.
	// Three critical leaves of 16 keep the root tree ratio below the
	// promotion threshold, so two separate ranges survive.
	addChunk(o, 0, 200)
	addChunk(o, 1, 190)
	addChunk(o, 8, 60)
	for j := 0; j < 16; j++ {
		addChunk(cold, j, 1)
	}
	reg.AttributeSamples(samples)
	plan, err := core.Analyze(reg, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Objects[0].Ranges) < 2 {
		t.Fatalf("fixture needs >= 2 ranges, got %v", plan.Objects[0].Ranges)
	}
	return plan
}

func TestTrimPlanForBandwidthDropsColdestFirst(t *testing.T) {
	plan := planFixture(t)
	before := plan.SelectedBytes
	p := memsim.MCDRAMDRAMParams() // independent channels
	trimPlanForBandwidth(plan, &p)
	if plan.SelectedBytes >= before {
		t.Fatalf("nothing trimmed: %d -> %d", before, plan.SelectedBytes)
	}
	// The expected kept fraction is fastBW/(fastBW+slowBW).
	frac := p.Tiers[memsim.TierFast].ReadBWGBs /
		(p.Tiers[memsim.TierFast].ReadBWGBs + p.Tiers[memsim.TierSlow].ReadBWGBs)
	want := uint64(float64(before) * frac)
	cs := plan.Objects[0].Object.ChunkSize
	if plan.SelectedBytes+cs < want || plan.SelectedBytes > want+cs {
		t.Errorf("kept %d, want about %d (±chunk)", plan.SelectedBytes, want)
	}
	// The densest range (chunks 0-1) must survive.
	found := false
	for _, rg := range plan.Objects[0].Ranges {
		if rg.Base == plan.Objects[0].Object.Base {
			found = true
		}
	}
	if !found {
		t.Error("densest range was trimmed")
	}
	// Accounting stays consistent.
	var sum uint64
	for _, rg := range plan.Objects[0].Ranges {
		sum += rg.Size
	}
	if sum != plan.SelectedBytes {
		t.Errorf("range sum %d != selected %d", sum, plan.SelectedBytes)
	}
	if plan.Objects[0].SampledBytes+plan.Objects[0].EstimatedBytes != sum {
		t.Error("per-origin byte split inconsistent after trim")
	}
}

func TestTrimPlanForBandwidthEmptyPlan(t *testing.T) {
	plan := &core.Plan{}
	p := memsim.MCDRAMDRAMParams()
	trimPlanForBandwidth(plan, &p) // must not panic
	if plan.SelectedBytes != 0 {
		t.Error("empty plan gained bytes")
	}
}

func TestBandwidthAwareIgnoredOnSharedChannels(t *testing.T) {
	// On the Optane testbed (shared channels) the option must be a
	// no-op: splitting traffic would only serialize it.
	runRatio := func(bw bool) float64 {
		rt, err := New(NVMDRAM(), WithBandwidthAware(bw))
		if err != nil {
			t.Fatal(err)
		}
		arr, err := NewArray[uint64](rt, "x", 128<<10)
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
		return rep.DataRatio()
	}
	if runRatio(false) != runRatio(true) {
		t.Error("BandwidthAware changed placement on a shared-channel system")
	}
}

func TestBandwidthAwareTrimsOnKNL(t *testing.T) {
	runSelected := func(bw bool) uint64 {
		rt, err := New(MCDRAMDRAM(), WithBandwidthAware(bw))
		if err != nil {
			t.Fatal(err)
		}
		arr, err := NewArray[uint64](rt, "x", 256<<10)
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
		return rep.SelectedBytes
	}
	full := runSelected(false)
	trimmed := runSelected(true)
	if trimmed >= full {
		t.Errorf("aggregate-bandwidth mode kept %d of %d bytes", trimmed, full)
	}
}
