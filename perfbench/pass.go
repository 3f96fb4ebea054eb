package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"time"

	"atmem"
	"atmem/apps"
)

// Tier indices of PhaseStats' per-tier arrays: the fast tier is 0 and
// the large slow tier 1 (memsim.TierFast / memsim.TierSlow).
const (
	fastTier = 0
	slowTier = 1
)

// pass is one set-up plus one measured section of a workload. Every
// simulated statistic a pass produces goes into its digest, so two passes
// at the same seed must agree exactly; host times are kept per step, in
// process CPU time (cpuNow).
type pass struct {
	seed uint64
	tr   *tracer
	root int

	// metrics attaches a metrics registry to every runtime of a traced
	// pass; readAnalyze returns its analyzer histogram's count and sum.
	metrics     atmem.Option
	readAnalyze func() (count, sumNS uint64)

	// Host times.
	setup  time.Duration   // set-up: graph, runtimes, kernel Setup (and recording)
	cpu    time.Duration   // the measured section
	steps  []time.Duration // one per step of the measured section
	places []time.Duration // per-placement stall outside the kernel body

	// Simulated end-to-end results of the measured section.
	phaseSeconds float64 // kernel phases (sim_s)
	simSeconds   float64 // everything the runtimes charge: phases, migration, scrub (sim.total_s)
	speedup      float64 // all-slow kernel time ÷ phaseSeconds (Fig. 5's iteration-time ratio)
	fastTouched  uint64  // fast-tier read+write+writeback bytes
	allTouched   uint64  // all-tier read+write+writeback bytes

	lay layerStats

	attempted int
	failures  []string
	dig       hash.Hash64
}

// layerStats holds the per-layer counts and host times of one pass. The
// counts are simulated (part of the digest); the durations are host CPU
// time.
type layerStats struct {
	graphBuild   time.Duration
	appsSetup    time.Duration
	appsValidate time.Duration

	memsimHost           time.Duration
	accesses, llcMisses  uint64
	tlbMisses            uint64
	fastBytes, slowBytes uint64

	samples        int
	profiledRatio  float64
	profSimS       float64
	profiledBodies []time.Duration // epoch-replay: recorded (profiled) kernel bodies
	replayedBodies []time.Duration // epoch-replay: replayed (unprofiled) kernel bodies

	analyzeCount, analyzeNS uint64
	selected                uint64
	fastDataRatio           float64
	placements              int

	moved              uint64
	pages, regions     int
	retried, skipped   int
	migrateSimS        float64
	promoted, demoted  uint64
	breakerTransitions int
	scrubbed           uint64
	scrubSimS          float64
	recordRun, compile time.Duration
	arms               []time.Duration
	hits               int
	rebalances, admits []time.Duration
	grantChanges       int
}

func newPass(seed uint64, traced bool) *pass {
	p := &pass{seed: seed, root: -1, dig: fnv.New64a()}
	p.readAnalyze = func() (uint64, uint64) { return 0, 0 }
	if traced {
		p.tr = newTracer()
		p.root = p.tr.begin(layerBench, "pass", -1)
		reg := atmem.NewMetricsRegistry()
		p.metrics = atmem.WithMetrics(reg)
		p.readAnalyze = func() (count, sumNS uint64) {
			for id, h := range reg.Snapshot().Histograms {
				if strings.HasPrefix(id, "atmem_optimize_analyze_ns") {
					count += h.Count
					sumNS += h.Sum
				}
			}
			return count, sumNS
		}
	}
	return p
}

// fail records a failed check; it counts against the steps attempted.
func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// check records err as a failure when it is non-nil.
func (p *pass) check(what string, err error) {
	if err != nil {
		p.fail("%s: %v", what, err)
	}
}

// digest folds simulated values into the pass digest. %v prints floats
// in their shortest exact form, so equal digests mean bit-equal values.
func (p *pass) digest(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(p.dig, "%+v|", v)
	}
}

// sum returns the pass digest.
func (p *pass) sum() string { return fmt.Sprintf("%016x", p.dig.Sum64()) }

// timed runs fn inside a span and returns the CPU time it took.
func (p *pass) timed(layer, name string, parent int, fn func()) time.Duration {
	id := p.tr.begin(layer, name, parent)
	t0 := cpuNow()
	fn()
	d := cpuNow() - t0
	p.tr.end(id)
	return d
}

// phases folds kernel phases of the measured section into the memsim
// counters, the tier traffic, and the digest.
func (p *pass) phases(prs []atmem.PhaseResult) {
	for i := range prs {
		st := &prs[i].Stats
		p.digest(st)
		p.phaseSeconds += st.WallSeconds
		p.lay.accesses += st.Accesses
		p.lay.llcMisses += st.LLCMisses
		p.lay.tlbMisses += st.TLBMisses
		fast := st.ReadBytes[fastTier] + st.WriteBytes[fastTier] + st.WritebackBytes[fastTier]
		slow := st.ReadBytes[slowTier] + st.WriteBytes[slowTier] + st.WritebackBytes[slowTier]
		p.lay.fastBytes += fast
		p.lay.slowBytes += slow
		p.fastTouched += fast
		p.allTouched += fast + slow
	}
}

// migration folds a placement's report into the layer counters and the
// digest.
func (p *pass) migration(m atmem.MigrationReport) {
	p.digest(m)
	p.lay.placements++
	p.lay.selected += m.SelectedBytes
	p.lay.moved += m.BytesMoved
	p.lay.pages += m.PagesMoved
	p.lay.regions += m.Regions
	p.lay.retried += m.RegionsRetried
	p.lay.skipped += m.RegionsSkipped
	p.lay.migrateSimS += m.Seconds
	p.lay.promoted += m.PromotedBytes
	p.lay.demoted += m.DemotedBytes
}

// kernels sets up each kernel on rt inside the apps layer.
func (p *pass) kernels(rt *atmem.Runtime, dataset string, parent int, names ...string) ([]apps.Kernel, error) {
	ks := make([]apps.Kernel, 0, len(names))
	for _, n := range names {
		k, err := apps.New(n)
		if err != nil {
			return nil, err
		}
		var serr error
		p.lay.appsSetup += p.timed(layerApps, "setup "+n, parent, func() { serr = k.Setup(rt, dataset) })
		if serr != nil {
			return nil, fmt.Errorf("%s setup: %w", n, serr)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// validate checks every kernel's result and the runtime's memory system
// ledger.
func (p *pass) validate(rt *atmem.Runtime, ks []apps.Kernel, parent int) {
	for _, k := range ks {
		var err error
		p.lay.appsValidate += p.timed(layerApps, "validate "+k.Name(), parent, func() { err = k.Validate() })
		p.check(k.Name()+" validate", err)
	}
	var err error
	p.timed(layerCheck, "consistency", parent, func() { err = rt.System().CheckConsistency() })
	p.check("consistency", err)
}

// closeRuntime releases rt inside the runtime layer.
func (p *pass) closeRuntime(rt *atmem.Runtime, parent int) {
	var err error
	p.timed(layerRuntime, "close", parent, func() { err = rt.Close() })
	p.check("close", err)
}

// finish closes the pass root span.
func (p *pass) finish() { p.tr.end(p.root) }
