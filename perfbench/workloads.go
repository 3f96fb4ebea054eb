package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"atmem"
	"atmem/apps"
	"atmem/graph"
)

// shape sizes the workloads. defaultShape is what the benchmark runs;
// the tests use a smaller one.
type shape struct {
	rmatScale int // paper-oneshot graph: RMAT-<scale>, edge factor 16
	iters     int // paper-oneshot measured iterations

	vertices int // epoch-shift / epoch-replay social graph
	epochs   int // epoch-shift / epoch-replay measured epochs
	rotate   int // epochs per hot kernel before the rotation moves on
	record   int // epoch-replay recorded epochs (one replayed runtime each)
	shiftMiB uint64

	tenantVertices int // tenant-pair social graph
	rounds         int // tenant-pair measured rounds
	tenantMiB      uint64
}

var defaultShape = shape{
	rmatScale: 17, iters: 20,
	vertices: 8192, epochs: 120, rotate: 5, record: 30, shiftMiB: 4,
	tenantVertices: 16384, rounds: 50, tenantMiB: 16,
}

// instance is one set-up workload, ready for its measured section.
type instance interface {
	measure(p *pass) error
	close(p *pass)
}

// workload names a set-up function; README.md says why each was chosen.
type workload struct {
	name  string
	setup func(p *pass, sh shape) (instance, error)
}

var workloads = []workload{
	{"paper-oneshot", setupOneshot},
	{"epoch-shift", setupShift},
	{"epoch-replay", setupReplay},
	{"tenant-pair", setupTenants},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// testbed is the NVM-DRAM testbed rescaled to threads simulated workers:
// the LLC and the gang size grow by the dropped workers, so each worker
// keeps the cache-to-working-set regime of the stock 8-worker testbed.
// fastMiB, when non-zero, sets the fast tier's capacity.
func testbed(threads int, fastMiB uint64) atmem.Testbed {
	prm := atmem.NVMDRAM().Params()
	if prm.Threads > threads {
		scale := prm.Threads / threads
		prm.LLCBytes *= scale
		prm.GangSize *= scale
	}
	prm.Threads = threads
	if fastMiB != 0 {
		prm.Tiers[fastTier].CapacityBytes = fastMiB << 20
	}
	return atmem.CustomTestbed(prm)
}

// socialGraph builds a seeded pokec-like social graph.
func socialGraph(name string, vertices int, seed uint64) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) {
		return graph.GenerateSocial(name, graph.SocialParams{
			NumVertices:     vertices,
			AvgDegree:       20,
			DegreeSkew:      0.55,
			PopularityAlpha: 0.85,
			LocalFraction:   0.4,
			CommunitySize:   64,
			Seed:            seed,
		})
	}
}

// loadGraph registers the generated graph and builds it, with the
// derived forms the kernels read, inside the graph layer.
func (p *pass) loadGraph(name string, build func() (*graph.Graph, error), symmetric bool) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	p.lay.graphBuild += p.timed(layerGraph, "build "+name, p.root, func() {
		graph.RegisterDataset(name, build)
		if g, err = graph.Load(name); err != nil {
			return
		}
		if _, err = graph.LoadReverse(name); err != nil || !symmetric {
			return
		}
		_, err = graph.LoadSymmetric(name)
	})
	return g, err
}

// newRuntime builds a runtime inside the runtime layer, with the pass's
// metrics registry attached on traced passes.
func (p *pass) newRuntime(tb atmem.Testbed, opts ...atmem.Option) (*atmem.Runtime, error) {
	opts = append([]atmem.Option{atmem.WithPlacementPolicy(atmem.PaperPolicy())}, opts...)
	if p.metrics != nil {
		opts = append(opts, p.metrics)
	}
	var rt *atmem.Runtime
	var err error
	p.timed(layerRuntime, "new", p.root, func() { rt, err = atmem.New(tb, opts...) })
	return rt, err
}

// epochResult is one RunEpoch as seen from outside.
type epochResult struct {
	rep        atmem.EpochReport
	step, body time.Duration
	err        error
}

// runEpoch runs one governed epoch of kernel k on rt and times it: the
// whole call, and the kernel body inside it.
func runEpoch(tr *tracer, rt *atmem.Runtime, k apps.Kernel, parent int) epochResult {
	var res epochResult
	ep := tr.begin(layerPlace, "epoch "+k.Name(), parent)
	t0 := cpuNow()
	res.rep, res.err = rt.RunEpoch(k.Name(), func() {
		b := tr.begin(layerMemsim, k.Name(), ep)
		tb := cpuNow()
		k.RunIteration(rt)
		res.body = cpuNow() - tb
		tr.end(b)
	})
	res.step = cpuNow() - t0
	tr.end(ep)
	return res
}

// account folds a measured epoch into the pass. The caller records its
// placement stall, res.step - res.body.
func (p *pass) account(rt *atmem.Runtime, res epochResult) {
	p.check("epoch", res.err)
	p.lay.memsimHost += res.body
	rep := res.rep
	p.phases(rep.Phases)
	p.lay.samples += rep.Samples
	p.digest(rep.Epoch, rep.Samples, rep.Optimized, rep.Replayed)
	if rep.Optimized || rep.Replayed {
		p.migration(rep.Migration)
	}
	if sc := rt.LastScorecard(); sc != nil && sc.Epoch == rep.Epoch {
		p.digest(*sc)
		p.lay.scrubSimS += sc.ScrubSeconds
		p.lay.profSimS += sc.ProfilingOverheadSeconds
	}
}

// hotKernel is the epoch rotation: each kernel is hot for rotate epochs.
func hotKernel(ks []apps.Kernel, epoch, rotate int) apps.Kernel {
	return ks[(epoch/rotate)%len(ks)]
}

// fastDataRatio is the fast-resident share of rt's registered data.
func fastDataRatio(rt *atmem.Runtime) float64 {
	var fast, total uint64
	for _, o := range rt.Objects() {
		fast += o.FastBytes()
		total += o.Size()
	}
	if total == 0 {
		return 0
	}
	return float64(fast) / float64(total)
}

// slowIterations runs each kernel twice on a runtime that never places
// (all data stays on the slow tier) and returns the second, warm
// iteration's simulated time per kernel: the all-slow baseline.
func (p *pass) slowIterations(tb atmem.Testbed, dataset string, names []string) (map[string]float64, error) {
	rt, err := p.newRuntime(tb)
	if err != nil {
		return nil, err
	}
	defer p.closeRuntime(rt, p.root)
	ks, err := p.kernels(rt, dataset, p.root, names...)
	if err != nil {
		return nil, err
	}
	slow := make(map[string]float64, len(ks))
	for _, k := range ks {
		var it apps.IterationResult
		p.timed(layerMemsim, "baseline "+k.Name(), p.root, func() { k.RunIteration(rt) })
		p.timed(layerMemsim, "baseline "+k.Name(), p.root, func() { it = k.RunIteration(rt) })
		slow[k.Name()] = it.Seconds
		p.digest(it.Seconds)
	}
	p.validate(rt, ks, p.root)
	return slow, nil
}

// ---------------------------------------------------------------------
// paper-oneshot

type oneshot struct {
	sh           shape
	dataset      string
	tb           atmem.Testbed
	placed, base *atmem.Runtime
	kp, kb       apps.Kernel
}

// placeProbes is how many times a pass repeats the profile-and-Optimize
// prologue on a fresh runtime after its measured section, so that
// place_p50_ms is a median over several placements rather than one.
const placeProbes = 7

func setupOneshot(p *pass, sh shape) (instance, error) {
	name := fmt.Sprintf("rmat%d-s%d", sh.rmatScale, p.seed)
	if _, err := p.loadGraph(name, func() (*graph.Graph, error) {
		return graph.GenerateRMAT(name, graph.DefaultRMAT(sh.rmatScale, 16, p.seed))
	}, false); err != nil {
		return nil, err
	}
	w := &oneshot{sh: sh, dataset: name, tb: testbed(2, 0)}
	var err error
	if w.placed, err = p.newRuntime(w.tb); err != nil {
		return nil, err
	}
	if w.base, err = p.newRuntime(w.tb); err != nil {
		return w, err
	}
	ks, err := p.kernels(w.placed, name, p.root, "pr")
	if err != nil {
		return w, err
	}
	w.kp = ks[0]
	if ks, err = p.kernels(w.base, name, p.root, "pr"); err != nil {
		return w, err
	}
	w.kb = ks[0]
	return w, nil
}

func (w *oneshot) measure(p *pass) error {
	// Listing 1: profile the first iteration and optimize once. The
	// baseline runtime's first iteration is the same cold, all-slow
	// iteration without sampling: the profiler's control.
	var first, firstBase apps.IterationResult
	w.placed.ProfilingStart()
	hp := p.timed(layerMemsim, "pr profiled", p.root, func() { first = w.kp.RunIteration(w.placed) })
	p.lay.samples = w.placed.ProfilingStop()
	hb := p.timed(layerMemsim, "pr baseline", p.root, func() { firstBase = w.kb.RunIteration(w.base) })
	p.lay.profiledRatio = hp.Seconds() / hb.Seconds()
	p.lay.profSimS = float64(w.placed.SampleCount()) * w.placed.Options().SampleOverheadNS / 1e9
	p.digest(first.Seconds, firstBase.Seconds, p.lay.samples, w.placed.SampleCount())

	var rep atmem.MigrationReport
	var err error
	runtime.GC() // keep a collection out of the single Optimize sample
	an0, ans0 := p.readAnalyze()
	p.places = append(p.places, p.timed(layerPlace, "optimize", p.root, func() { rep, err = w.placed.Optimize() }))
	if err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	an1, ans1 := p.readAnalyze()
	p.lay.analyzeCount, p.lay.analyzeNS = an1-an0, ans1-ans0
	p.migration(rep)
	p.lay.fastDataRatio = fastDataRatio(w.placed)

	// One warm iteration on each runtime, then the baseline's measured
	// all-slow iteration.
	var slow apps.IterationResult
	p.timed(layerMemsim, "pr warm", p.root, func() { w.kp.RunIteration(w.placed) })
	p.timed(layerMemsim, "pr warm baseline", p.root, func() { w.kb.RunIteration(w.base) })
	p.timed(layerMemsim, "pr baseline", p.root, func() { slow = w.kb.RunIteration(w.base) })
	p.digest(slow.Seconds)

	runtime.GC()
	sim0 := w.placed.SimSeconds()
	t0 := cpuNow()
	for i := 0; i < w.sh.iters; i++ {
		var it apps.IterationResult
		d := p.timed(layerMemsim, "pr", p.root, func() { it = w.kp.RunIteration(w.placed) })
		p.steps = append(p.steps, d)
		p.lay.memsimHost += d
		p.phases(it.Phases)
	}
	p.cpu = cpuNow() - t0
	p.attempted += w.sh.iters
	p.simSeconds = w.placed.SimSeconds() - sim0
	p.speedup = slow.Seconds * float64(w.sh.iters) / p.phaseSeconds
	p.digest(p.simSeconds, p.speedup)

	p.validate(w.placed, []apps.Kernel{w.kp}, p.root)
	p.validate(w.base, []apps.Kernel{w.kb}, p.root)
	for i := 0; i < placeProbes; i++ {
		if err := w.probe(p, rep); err != nil {
			return err
		}
	}
	return nil
}

// probe profiles one iteration on a fresh runtime and times its Optimize,
// which must place exactly what the pass's own Optimize placed.
func (w *oneshot) probe(p *pass, want atmem.MigrationReport) error {
	rt, err := p.newRuntime(w.tb)
	if err != nil {
		return err
	}
	defer p.closeRuntime(rt, p.root)
	ks, err := p.kernels(rt, w.dataset, p.root, "pr")
	if err != nil {
		return err
	}
	rt.ProfilingStart()
	p.timed(layerMemsim, "pr profiled", p.root, func() { ks[0].RunIteration(rt) })
	rt.ProfilingStop()
	runtime.GC()
	var rep atmem.MigrationReport
	p.places = append(p.places, p.timed(layerPlace, "optimize", p.root, func() { rep, err = rt.Optimize() }))
	if err != nil {
		return fmt.Errorf("probe optimize: %w", err)
	}
	if rep != want {
		p.fail("probe placement %+v differs from the pass's %+v", rep, want)
	}
	return nil
}

func (w *oneshot) close(p *pass) {
	for _, rt := range []*atmem.Runtime{w.placed, w.base} {
		if rt != nil {
			p.closeRuntime(rt, p.root)
		}
	}
}

// ---------------------------------------------------------------------
// epoch-shift

var epochKernels = []string{"bfs", "pr", "cc"}

type shift struct {
	sh      shape
	dataset string
	tb      atmem.Testbed
	rt      *atmem.Runtime
	ks      []apps.Kernel
}

func governed() atmem.Option {
	return atmem.WithGovernor(atmem.GovernorOptions{Enabled: true})
}

func setupShift(p *pass, sh shape) (instance, error) {
	name := fmt.Sprintf("social%d-s%d", sh.vertices, p.seed)
	if _, err := p.loadGraph(name, socialGraph(name, sh.vertices, p.seed), true); err != nil {
		return nil, err
	}
	w := &shift{sh: sh, dataset: name, tb: testbed(1, sh.shiftMiB)}
	var err error
	if w.rt, err = p.newRuntime(w.tb, governed(), atmem.WithScrubber()); err != nil {
		return nil, err
	}
	w.ks, err = p.kernels(w.rt, name, p.root, epochKernels...)
	return w, err
}

func (w *shift) measure(p *pass) error {
	// Warm-up: one full rotation, so the measured epochs start from a
	// placement that has already seen every kernel.
	warm := w.sh.rotate * len(w.ks)
	for e := 0; e < warm; e++ {
		res := runEpoch(p.tr, w.rt, hotKernel(w.ks, e, w.sh.rotate), p.root)
		p.check("warm epoch", res.err)
		p.digest(res.rep.Migration)
	}
	runtime.GC()
	an0, ans0 := p.readAnalyze()
	scrub0 := w.rt.HealthStats().Scrub.BytesScrubbed
	sim0 := w.rt.SimSeconds()
	var mix []string
	t0 := cpuNow()
	for e := 0; e < w.sh.epochs; e++ {
		k := hotKernel(w.ks, warm+e, w.sh.rotate)
		res := runEpoch(p.tr, w.rt, k, p.root)
		p.steps = append(p.steps, res.step)
		p.places = append(p.places, res.step-res.body)
		p.account(w.rt, res)
		mix = append(mix, k.Name())
	}
	p.cpu = cpuNow() - t0
	p.attempted += w.sh.epochs
	p.simSeconds = w.rt.SimSeconds() - sim0
	an1, ans1 := p.readAnalyze()
	p.lay.analyzeCount, p.lay.analyzeNS = an1-an0, ans1-ans0
	p.lay.scrubbed = w.rt.HealthStats().Scrub.BytesScrubbed - scrub0
	p.lay.breakerTransitions = len(w.rt.BreakerTransitions())
	p.lay.fastDataRatio = fastDataRatio(w.rt)
	p.digest(p.simSeconds, p.lay.scrubbed, p.lay.breakerTransitions, p.lay.fastDataRatio)
	p.validate(w.rt, w.ks, p.root)
	return p.baseline(w.tb, w.dataset, mix)
}

// baseline sets p.speedup: the all-slow time of the measured kernel
// sequence over the measured section's simulated time.
func (p *pass) baseline(tb atmem.Testbed, dataset string, mix []string) error {
	slow, err := p.slowIterations(tb, dataset, epochKernels)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base float64
	for _, k := range mix {
		base += slow[k]
	}
	p.speedup = base / p.phaseSeconds
	p.digest(p.speedup)
	return nil
}

func (w *shift) close(p *pass) {
	if w.rt != nil {
		p.closeRuntime(w.rt, p.root)
	}
}

// ---------------------------------------------------------------------
// epoch-replay

type replay struct {
	sh      shape
	dataset string
	crc     uint32
	tb      atmem.Testbed
	cache   *atmem.PlanCache
}

func setupReplay(p *pass, sh shape) (instance, error) {
	name := fmt.Sprintf("social%d-s%d", sh.vertices, p.seed)
	g, err := p.loadGraph(name, socialGraph(name, sh.vertices, p.seed), true)
	if err != nil {
		return nil, err
	}
	w := &replay{sh: sh, dataset: name, crc: g.CRC(), tb: testbed(1, sh.shiftMiB), cache: atmem.NewPlanCache()}
	// Record: one online run of the epoch mix, compiled into the cache.
	rt, ks, err := w.runtime(p)
	if err != nil {
		return nil, err
	}
	defer p.closeRuntime(rt, p.root)
	verdict, err := w.arm(p, rt)
	if err != nil {
		return nil, err
	}
	if verdict != "miss" {
		return nil, fmt.Errorf("recording run: plan lookup %s, want miss", verdict)
	}
	rec := p.tr.begin(layerPlan, "record", p.root)
	t0 := cpuNow()
	for e := 0; e < sh.record; e++ {
		res := runEpoch(p.tr, rt, hotKernel(ks, e, sh.rotate), rec)
		p.check("record epoch", res.err)
		p.digest(res.rep.Samples, res.rep.Migration)
		p.lay.profiledBodies = append(p.lay.profiledBodies, res.body)
	}
	p.lay.recordRun = cpuNow() - t0
	p.tr.end(rec)
	var cerr error
	p.lay.compile = p.timed(layerPlan, "compile", p.root, func() { _, cerr = rt.FinishPlan() })
	if cerr != nil {
		return nil, fmt.Errorf("compile: %w", cerr)
	}
	p.validate(rt, ks, p.root)
	return w, nil
}

// runtime builds a fresh governed, scrubbing runtime over the plan cache
// with the three kernels set up.
func (w *replay) runtime(p *pass) (*atmem.Runtime, []apps.Kernel, error) {
	rt, err := p.newRuntime(w.tb, governed(), atmem.WithScrubber(), atmem.WithPlanCache(w.cache))
	if err != nil {
		return nil, nil, err
	}
	ks, err := p.kernels(rt, w.dataset, p.root, epochKernels...)
	if err != nil {
		p.closeRuntime(rt, p.root)
		return nil, nil, err
	}
	return rt, ks, nil
}

// arm looks the workload's signature up in the plan cache and returns
// the verdict ("hit", "miss" or "stale").
func (w *replay) arm(p *pass, rt *atmem.Runtime) (string, error) {
	sig := rt.BuildSignature(w.dataset, w.crc, epochKernels)
	var verdict string
	var err error
	p.lay.arms = append(p.lay.arms, p.timed(layerPlan, "arm", p.root, func() {
		v, aerr := rt.ArmPlan(sig)
		verdict, err = v.String(), aerr
	}))
	return verdict, err
}

func (w *replay) measure(p *pass) error {
	runtime.GC()
	var first string
	var mix []string
	t0 := cpuNow()
	for done := 0; done < w.sh.epochs; done += w.sh.record {
		if err := w.replayOnce(p, &first, &mix); err != nil {
			return err
		}
	}
	p.cpu = cpuNow() - t0
	p.digest(p.simSeconds)
	return p.baseline(w.tb, w.dataset, mix)
}

// replayOnce replays the recorded epochs on a fresh runtime. Every
// replay must hit the cache and produce the same digest as the first.
func (w *replay) replayOnce(p *pass, first *string, mix *[]string) error {
	rt, ks, err := w.runtime(p)
	if err != nil {
		return err
	}
	defer p.closeRuntime(rt, p.root)
	verdict, err := w.arm(p, rt)
	if err != nil {
		return fmt.Errorf("arm: %w", err)
	}
	if verdict != "hit" {
		p.fail("replay: plan lookup %s, want hit", verdict)
	} else {
		p.lay.hits++
	}
	outer := p.dig
	p.dig = fnv.New64a()
	sim0 := rt.SimSeconds()
	for e := 0; e < w.sh.record; e++ {
		k := hotKernel(ks, e, w.sh.rotate)
		res := runEpoch(p.tr, rt, k, p.root)
		p.steps = append(p.steps, res.step)
		p.places = append(p.places, res.step-res.body)
		p.lay.replayedBodies = append(p.lay.replayedBodies, res.body)
		p.account(rt, res)
		*mix = append(*mix, k.Name())
	}
	p.attempted += w.sh.record
	sim := rt.SimSeconds() - sim0
	p.simSeconds += sim
	p.digest(sim)
	var ferr error
	p.timed(layerPlan, "finish", p.root, func() { _, ferr = rt.FinishPlan() })
	p.check("finish plan", ferr)
	p.lay.fastDataRatio = fastDataRatio(rt)
	scrubbed, transitions := rt.HealthStats().Scrub.BytesScrubbed, len(rt.BreakerTransitions())
	p.lay.scrubbed += scrubbed
	p.lay.breakerTransitions += transitions
	p.digest(scrubbed, transitions)
	p.validate(rt, ks, p.root)
	d := p.sum()
	p.dig = outer
	p.digest(d)
	if *first == "" {
		*first = d
	} else if d != *first {
		p.fail("replay digest %s differs from the first replay's %s", d, *first)
	}
	return nil
}

func (w *replay) close(*pass) {}

// ---------------------------------------------------------------------
// tenant-pair

type member struct {
	rt     *atmem.Runtime
	k      apps.Kernel
	scrub0 uint64 // bytes scrubbed before the measured section
}

type tenants struct {
	sh      shape
	dataset string
	tb      atmem.Testbed
	bk      *atmem.Broker
	members []*member
}

func setupTenants(p *pass, sh shape) (instance, error) {
	name := fmt.Sprintf("social%d-s%d", sh.tenantVertices, p.seed)
	if _, err := p.loadGraph(name, socialGraph(name, sh.tenantVertices, p.seed), true); err != nil {
		return nil, err
	}
	w := &tenants{sh: sh, dataset: name, tb: testbed(1, sh.tenantMiB)}
	p.timed(layerRuntime, "broker", p.root, func() { w.bk = atmem.NewBroker(w.tb, atmem.BrokerConfig{}) })
	for _, t := range []struct {
		spec atmem.TenantSpec
		app  string
	}{
		{atmem.TenantSpec{Name: "pr-guaranteed", Class: atmem.ClassGuaranteed, FloorBytes: 2 << 20}, "pr"},
		{atmem.TenantSpec{Name: "cc-burstable", Class: atmem.ClassBurstable, FloorBytes: 1 << 20, BurstBytes: 8 << 20}, "cc"},
	} {
		if err := w.admit(p, t.spec, t.app); err != nil {
			return w, err
		}
	}
	return w, nil
}

// admit admits a tenant and builds its runtime and kernel.
func (w *tenants) admit(p *pass, spec atmem.TenantSpec, app string) error {
	var tn *atmem.Tenant
	var err error
	p.lay.admits = append(p.lay.admits, p.timed(layerBroker, "admit "+spec.Name, p.root, func() { tn, err = w.bk.Admit(spec) }))
	if err != nil {
		return fmt.Errorf("admit %s: %w", spec.Name, err)
	}
	rt, err := p.newRuntime(w.tb, atmem.WithTenant(tn), atmem.WithScrubber())
	if err != nil {
		return err
	}
	m := &member{rt: rt}
	w.members = append(w.members, m)
	ks, err := p.kernels(rt, w.dataset, p.root, app)
	if err != nil {
		return err
	}
	m.k = ks[0]
	return nil
}

// round runs every tenant's epoch, one after the other, then
// rebalances. The epochs run in turn rather than concurrently so that
// the process CPU clock times each on its own (see cpuNow); the tenants
// still share the system, its placement lock and the unsealed accessors.
func (w *tenants) round(p *pass, measured bool) {
	rs := p.tr.begin(layerBench, "round", p.root)
	t0 := cpuNow()
	res := make([]epochResult, len(w.members))
	sim := make([]float64, len(w.members))
	for i, m := range w.members {
		sim[i] = m.rt.SimSeconds()
		res[i] = runEpoch(p.tr, m.rt, m.k, rs)
	}
	rb := p.tr.begin(layerBroker, "rebalance", rs)
	tr0 := cpuNow()
	rr := w.bk.Rebalance()
	reb := cpuNow() - tr0
	p.tr.end(rb)
	step := cpuNow() - t0
	p.tr.end(rs)
	p.digest(rr)
	if !measured {
		for i := range res {
			p.check("warm epoch", res[i].err)
		}
		return
	}
	p.steps = append(p.steps, step)
	p.lay.rebalances = append(p.lay.rebalances, reb)
	if rr.GrantedTo != "" {
		p.lay.grantChanges++
	}
	// One placement stall per round, both tenants' together: the PR
	// and CC tenants' stalls differ, and a median over both kinds would
	// fall between them.
	var place time.Duration
	for i, m := range w.members {
		place += res[i].step - res[i].body
		p.account(m.rt, res[i])
		p.simSeconds += m.rt.SimSeconds() - sim[i]
	}
	p.places = append(p.places, place)
}

func (w *tenants) measure(p *pass) error {
	for r := 0; r < 2; r++ {
		w.round(p, false)
	}
	runtime.GC()
	an0, ans0 := p.readAnalyze()
	for _, m := range w.members {
		m.scrub0 = m.rt.HealthStats().Scrub.BytesScrubbed
	}
	t0 := cpuNow()
	for r := 0; r < w.sh.rounds; r++ {
		if r == w.sh.rounds/2 {
			// The burstable tenant departs and a best-effort one takes
			// its place, so every round still runs one PR and one CC.
			w.depart(p, w.members[1])
			w.members = w.members[:1]
			if err := w.admit(p, atmem.TenantSpec{Name: "cc-best-effort", Class: atmem.ClassBestEffort}, "cc"); err != nil {
				return err
			}
		}
		w.round(p, true)
	}
	p.cpu = cpuNow() - t0
	p.attempted += w.sh.rounds
	an1, ans1 := p.readAnalyze()
	p.lay.analyzeCount, p.lay.analyzeNS = an1-an0, ans1-ans0
	var ratio float64
	for _, m := range w.members {
		ratio += fastDataRatio(m.rt) / float64(len(w.members))
		w.depart(p, m)
	}
	w.members = nil
	p.lay.fastDataRatio = ratio
	p.digest(p.simSeconds, p.lay.scrubbed, p.lay.breakerTransitions, p.lay.fastDataRatio)

	// All-slow baseline: every round runs one PR and one CC iteration.
	slow, err := p.slowIterations(w.tb, w.dataset, []string{"pr", "cc"})
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	roundSlow := slow["pr"] + slow["cc"]
	p.speedup = roundSlow * float64(w.sh.rounds) / p.phaseSeconds
	p.digest(p.speedup)
	return nil
}

// depart validates a tenant, folds its scrub and breaker counts into the
// pass, and closes its runtime, which leaves the broker.
func (w *tenants) depart(p *pass, m *member) {
	p.validate(m.rt, []apps.Kernel{m.k}, p.root)
	p.lay.scrubbed += m.rt.HealthStats().Scrub.BytesScrubbed - m.scrub0
	p.lay.breakerTransitions += len(m.rt.BreakerTransitions())
	p.digest(p.lay.scrubbed, p.lay.breakerTransitions)
	p.closeRuntime(m.rt, p.root)
}

func (w *tenants) close(p *pass) {
	for _, m := range w.members {
		p.closeRuntime(m.rt, p.root)
	}
}
