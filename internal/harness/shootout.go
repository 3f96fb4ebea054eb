package harness

// The policy shootout compares the paper's analyzer against the rest of
// the placement-policy quartet — the frozen first-fit floor (static),
// the in-process-trained pairwise ranker (learned), and the full-trace
// hindsight ceiling (oracle) — across all seven kernels under an equal
// fast-tier budget. Fast-access share is the figure of merit: the share
// of measured device traffic served by the fast tier measures exactly
// how much of the true hot set each policy captured, and the oracle's
// share (hindsight trace plus one refinement round under its own
// placement) bounds what is achievable.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"atmem"
	"atmem/apps"
	"atmem/internal/core"
	"atmem/internal/memsim"
)

// ShootoutApps is the full seven-kernel cast.
var ShootoutApps = []string{"bfs", "dobfs", "sssp", "pr", "bc", "cc", "spmv"}

// ShootoutScenario configures a policy shootout.
type ShootoutScenario struct {
	// Testbed and Dataset fix the platform and graph (every kernel and
	// policy runs the same pair).
	Testbed TestbedID
	Dataset string
	// Apps is the kernel cast (default ShootoutApps).
	Apps []string
	// BudgetFraction is the fast-tier placement budget as a fraction
	// of each kernel's registered footprint. It must be binding (< 1):
	// with the whole footprint fast-resident every policy is trivially
	// equal. Default 0.3.
	BudgetFraction float64
	// SamplePeriod is the profiling period for the feature pass and
	// every deployed policy run (the label pass is always period 1).
	// The runtime's automatic period assumes cold traffic — one miss
	// per line of footprint — and badly undersamples the warm
	// iterations the shootout profiles, so a dense explicit period is
	// the default (5).
	SamplePeriod uint64
	// Threads is the simulated thread count for every pass. The
	// shootout pins it to 1: the kernels race CAS claims (BFS levels,
	// CC label minima), so with multiple workers the access stream —
	// and through it the shared-cache conflict traffic and the sampled
	// profile — depends on goroutine scheduling. Margins between
	// policies on an easy kernel can be smaller than that noise; a
	// single simulated thread makes every cell bit-reproducible. The
	// testbed's per-worker LLC replica and gang size are rescaled to
	// match (see shootoutTestbed).
	Threads int
	// Epsilon is the analyzer's ε knob for the paper policy's runs.
	// The paper's default ε minimizes the selection footprint (§7.2);
	// under the shootout's binding budget the right setting is a low ε
	// so the budget, not the threshold, clips the plan — otherwise the
	// comparison would measure ε's conservatism, not ranking quality.
	// Default 0.01.
	Epsilon float64
	// Train tunes the in-process pairwise trainer; the zero value
	// takes the core defaults.
	Train core.TrainConfig
	// GapBarKernels is the minimum number of kernels on which the
	// learned policy must close at least half of the paper→oracle
	// fast-access-share gap for Assert to pass (0 skips that bar).
	GapBarKernels int
	// Assert enforces the ordering bars (oracle ≥ paper ≥ static on
	// every kernel, plus GapBarKernels) and fails the run when they
	// break.
	Assert bool
	// TraceDir, when non-empty, writes the machine-readable
	// policy-shootout.json artifact there (atmem-report -shootout
	// renders it).
	TraceDir string
	// Verbose prints one line per completed run.
	Verbose bool
}

// DefaultShootoutScenario is the CI configuration: all seven kernels on
// the smallest dataset, a 30% budget, and every bar armed.
func DefaultShootoutScenario() ShootoutScenario {
	return ShootoutScenario{
		Testbed:        NVM,
		Dataset:        "pokec",
		Apps:           ShootoutApps,
		BudgetFraction: 0.3,
		Threads:        1,
		SamplePeriod:   5,
		Epsilon:        0.01,
		GapBarKernels:  3,
		Assert:         true,
	}
}

// ShootoutCell is one (kernel, policy) outcome.
type ShootoutCell struct {
	App    string `json:"app"`
	Policy string `json:"policy"`
	// FastAccessShare is the fraction of the measured iteration's
	// read+write+writeback traffic served by the fast tier.
	FastAccessShare float64 `json:"fast_access_share"`
	// DataRatio is the fraction of registered bytes fast-resident
	// during the measured iteration.
	DataRatio float64 `json:"data_ratio"`
	// IterSeconds is the measured (warm) iteration time.
	IterSeconds float64 `json:"iter_seconds"`
	// MigrationSeconds and MovedBytes are the migration tax the policy
	// paid for its placement.
	MigrationSeconds float64 `json:"migration_seconds"`
	MovedBytes       uint64  `json:"moved_bytes"`
	// GapToOracle is the oracle's fast-access share minus this cell's
	// (0 for the oracle row itself; negative would mean beating the
	// hindsight fill, possible only within chunk-granularity noise).
	GapToOracle float64 `json:"gap_to_oracle"`
	// Validated records that the kernel's result checked out.
	Validated bool `json:"validated"`
}

// ShootoutResult is the full shootout outcome, serialized as the
// policy-shootout.json artifact.
type ShootoutResult struct {
	Testbed        string          `json:"testbed"`
	Dataset        string          `json:"dataset"`
	BudgetFraction float64         `json:"budget_fraction"`
	Policies       []string        `json:"policies"`
	Cells          []ShootoutCell  `json:"cells"`
	Train          core.TrainStats `json:"train"`
	// GapClosedKernels counts kernels where the learned policy closed
	// at least half of the paper→oracle fast-access-share gap (a
	// non-positive gap counts: there was nothing left to close).
	GapClosedKernels int `json:"gap_closed_kernels"`
	Kernels          int `json:"kernels"`
}

// kernelData is one kernel's two preparation passes: the full-trace
// heat recording (labels + oracle input) and the sampled features.
type kernelData struct {
	app   string
	trace *core.HeatTrace
	feats []core.ChunkFeatures
}

// collectKernelData runs the two preparation passes for one kernel.
//
// Both passes profile a WARM iteration (one unprofiled iteration first):
// the steady state is what placement serves, and cold-iteration misses
// actively mislead — a small reused object (spmv's x vector, a BFS
// frontier) misses heavily on first touch but is cache-resident ever
// after, so its cold-miss density is anti-correlated with the warm
// traffic placement can capture. The label pass measures the complete
// per-chunk device-byte traffic (Runtime.TrafficTrace — prefetched
// stream fills and writebacks included, grain amplification accounted)
// of the SAME iteration index the deployed runs measure (the fourth —
// see runShootoutPolicy), so the hindsight oracle ranks on exactly the
// quantity being scored. Sampled demand-miss heat would not do:
// prefetch coverage hides most sequential traffic from the sampler,
// and the slow tier's access-grain amplification makes a random
// chunk's slow-tier bytes worth 4x its line count. The feature pass
// samples the second iteration at the deployed period — exactly the
// position and density of the signal a deployed policy ranks on.
func collectKernelData(tb atmem.Testbed, app, dataset string, period uint64) (*kernelData, error) {
	label, err := atmem.New(tb,
		atmem.WithPlacementPolicy(atmem.PaperPolicy()))
	if err != nil {
		return nil, err
	}
	kern, err := apps.New(app)
	if err != nil {
		return nil, err
	}
	if err := kern.Setup(label, dataset); err != nil {
		return nil, fmt.Errorf("harness: shootout %s label setup: %w", app, err)
	}
	kern.RunIteration(label)
	kern.RunIteration(label)
	kern.RunIteration(label)
	trace := label.TrafficTrace(func() { kern.RunIteration(label) })
	kd := &kernelData{app: app, trace: trace}

	feat, err := atmem.New(tb,
		atmem.WithPlacementPolicy(atmem.PaperPolicy()),
		atmem.WithSamplePeriod(period))
	if err != nil {
		return nil, err
	}
	kernF, err := apps.New(app)
	if err != nil {
		return nil, err
	}
	if err := kernF.Setup(feat, dataset); err != nil {
		return nil, fmt.Errorf("harness: shootout %s feature setup: %w", app, err)
	}
	kernF.RunIteration(feat)
	feat.ProfilingStart()
	kernF.RunIteration(feat)
	feat.ProfilingStop()
	kd.feats = core.Featurize(feat.Registry(), feat.SamplePeriod(), 0)
	return kd, nil
}

// trainingSamples joins a kernel's sampled features against its
// full-trace heat labels by (object, chunk).
func (kd *kernelData) trainingSamples() []core.TrainSample {
	out := make([]core.TrainSample, 0, len(kd.feats))
	for _, cf := range kd.feats {
		var label float64
		if heat, ok := kd.trace.Objects[cf.Object]; ok && cf.Chunk < len(heat) {
			label = heat[cf.Chunk]
		}
		out = append(out, core.TrainSample{F: cf.F, Label: label})
	}
	return out
}

// ShootoutTrainingData runs the preparation passes for the scenario's
// kernels and returns the joined training set — the same data the
// shootout trains on in-process, exported for cmd/atmem-train.
func ShootoutTrainingData(scn ShootoutScenario) ([]core.TrainSample, error) {
	scn = scn.withDefaults()
	tb, err := shootoutTestbed(scn)
	if err != nil {
		return nil, err
	}
	var samples []core.TrainSample
	for _, app := range scn.Apps {
		kd, err := collectKernelData(tb, app, scn.Dataset, scn.SamplePeriod)
		if err != nil {
			return nil, err
		}
		samples = append(samples, kd.trainingSamples()...)
	}
	return samples, nil
}

// withDefaults fills unset scenario knobs with the CI defaults.
func (scn ShootoutScenario) withDefaults() ShootoutScenario {
	def := DefaultShootoutScenario()
	if len(scn.Apps) == 0 {
		scn.Apps = def.Apps
	}
	if scn.Dataset == "" {
		scn.Dataset = def.Dataset
	}
	if scn.BudgetFraction <= 0 || scn.BudgetFraction >= 1 {
		scn.BudgetFraction = def.BudgetFraction
	}
	if scn.SamplePeriod == 0 {
		scn.SamplePeriod = def.SamplePeriod
	}
	if scn.Epsilon <= 0 {
		scn.Epsilon = def.Epsilon
	}
	return scn
}

// shootoutTestbed resolves the scenario's platform with the thread pin
// applied. Pinning one simulated worker makes every cell reproducible
// (see ShootoutScenario.Threads), but each worker's LLC replica is
// sized for the default worker count's graph partition; a lone worker
// walks the WHOLE graph, so keeping the stock replica would change the
// cache-to-working-set ratio — a different microarchitectural regime
// (every reused structure thrashes, demand misses decorrelate from
// true traffic), not merely less parallelism. The replica therefore
// scales by the dropped worker count, and GangSize absorbs the dropped
// workers so absolute iteration times stay on the stock machine's
// scale.
func shootoutTestbed(scn ShootoutScenario) (atmem.Testbed, error) {
	tb, err := TestbedFor(scn.Testbed)
	if err != nil || scn.Threads <= 0 {
		return tb, err
	}
	p := tb.Params()
	if p.Threads > scn.Threads {
		scale := p.Threads / scn.Threads
		p.LLCBytes *= scale
		p.GangSize *= scale
	}
	p.Threads = scn.Threads
	return atmem.CustomTestbed(p), nil
}

// fastShareOf computes the fast tier's share of read+write+writeback
// traffic over the given phases — the same definition the governed
// scorecard uses for FastAccessShare.
func fastShareOf(phases []atmem.PhaseResult) float64 {
	var fast, total uint64
	for i := range phases {
		st := &phases[i].Stats
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			n := st.ReadBytes[t] + st.WriteBytes[t] + st.WritebackBytes[t]
			total += n
			if t == memsim.TierFast {
				fast += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fast) / float64(total)
}

// optimizeShootoutCell sets one kernel up under one policy at the
// constrained budget, warms it up, profiles a warm iteration (see
// collectKernelData for why warm), and Optimizes. extra options are
// applied after the cell's own.
func optimizeShootoutCell(tb atmem.Testbed, scn ShootoutScenario, app string, pol atmem.PlacementPolicy, extra ...atmem.Option) (*atmem.Runtime, apps.Kernel, atmem.MigrationReport, error) {
	var rep atmem.MigrationReport
	ac := core.DefaultConfig()
	ac.Epsilon = scn.Epsilon
	rt, err := atmem.New(tb, append([]atmem.Option{
		atmem.WithPlacementPolicy(pol),
		atmem.WithSamplePeriod(scn.SamplePeriod),
		atmem.WithAnalyzer(ac)}, extra...)...)
	if err != nil {
		return nil, nil, rep, err
	}
	kern, err := apps.New(app)
	if err != nil {
		return nil, nil, rep, err
	}
	if err := kern.Setup(rt, scn.Dataset); err != nil {
		return nil, nil, rep, fmt.Errorf("harness: shootout %s/%s setup: %w", app, pol.Name(), err)
	}
	// Constrain the budget to BudgetFraction of the footprint via the
	// capacity reserve, so the policies compete for a binding budget
	// even on datasets that would fit the fast tier whole.
	target := uint64(scn.BudgetFraction * float64(rt.Registry().TotalBytes()))
	if free := rt.System().FreeCapacity(memsim.TierFast); free > target {
		rt.SetCapacityReserve(free - target)
	}
	kern.RunIteration(rt)
	rt.ProfilingStart()
	kern.RunIteration(rt)
	rt.ProfilingStop()
	rep, err = rt.Optimize()
	if err != nil {
		return nil, nil, rep, fmt.Errorf("harness: shootout %s/%s optimize: %w", app, pol.Name(), err)
	}
	return rt, kern, rep, nil
}

// runShootoutPolicy runs one kernel under one policy at the constrained
// budget: optimizeShootoutCell, then warm up again and measure.
func runShootoutPolicy(tb atmem.Testbed, scn ShootoutScenario, app string, pol atmem.PlacementPolicy, capture bool) (ShootoutCell, *atmem.HeatTrace, error) {
	cell := ShootoutCell{App: app, Policy: pol.Name()}
	rt, kern, rep, err := optimizeShootoutCell(tb, scn, app, pol)
	if err != nil {
		return cell, nil, err
	}
	kern.RunIteration(rt)
	var meas apps.IterationResult
	var refined *atmem.HeatTrace
	if capture {
		// Record the measured iteration's traffic under THIS placement:
		// conflict traffic is placement-dependent, so the refinement
		// round hands the oracle a trace of the very conditions it will
		// be scored under.
		refined = rt.TrafficTrace(func() { meas = kern.RunIteration(rt) })
	} else {
		meas = kern.RunIteration(rt)
	}
	if err := kern.Validate(); err != nil {
		return cell, nil, fmt.Errorf("harness: shootout %s/%s validation: %w", app, pol.Name(), err)
	}
	cell.Validated = true
	cell.FastAccessShare = fastShareOf(meas.Phases)
	cell.DataRatio = rt.FastDataRatio()
	cell.IterSeconds = meas.Seconds
	cell.MigrationSeconds = rep.Seconds
	cell.MovedBytes = rep.BytesMoved
	return cell, refined, nil
}

// RunPolicyShootout executes the full shootout: per-kernel preparation
// passes, one in-process training run over the union of all kernels'
// labeled chunks, then every kernel under every policy, with the
// ordering bars checked at the end when the scenario asserts.
func RunPolicyShootout(scn ShootoutScenario) (*ShootoutResult, error) {
	scn = scn.withDefaults()
	tb, err := shootoutTestbed(scn)
	if err != nil {
		return nil, err
	}

	data := make([]*kernelData, 0, len(scn.Apps))
	var samples []core.TrainSample
	for _, app := range scn.Apps {
		kd, err := collectKernelData(tb, app, scn.Dataset, scn.SamplePeriod)
		if err != nil {
			return nil, err
		}
		data = append(data, kd)
		samples = append(samples, kd.trainingSamples()...)
		if scn.Verbose {
			fmt.Printf("  [shootout] %-5s prepared: %d labeled chunks\n", app, len(kd.feats))
		}
	}
	weights, tstats, err := core.TrainPairwise(samples, scn.Train)
	if err != nil {
		return nil, fmt.Errorf("harness: shootout training: %w", err)
	}
	if scn.Verbose {
		fmt.Printf("  [shootout] trained on %d chunks / %d pairs: violations %d -> %d\n",
			tstats.Samples, tstats.Pairs, tstats.InitialViolations, tstats.FinalViolations)
	}

	res := &ShootoutResult{
		Testbed:        string(scn.Testbed),
		Dataset:        scn.Dataset,
		BudgetFraction: scn.BudgetFraction,
		Policies:       []string{"static", "paper", "learned", "oracle"},
		Train:          tstats,
		Kernels:        len(scn.Apps),
	}
	shares := make(map[string]map[string]float64, len(scn.Apps)) // app -> policy -> share
	for _, kd := range data {
		policies := []atmem.PlacementPolicy{
			atmem.StaticPolicy(),
			atmem.PaperPolicy(),
			atmem.LearnedPolicyFromWeights(weights),
			atmem.OraclePolicy(kd.trace),
		}
		shares[kd.app] = make(map[string]float64, len(policies))
		for _, pol := range policies {
			oracle := pol.Name() == "oracle"
			cell, refined, err := runShootoutPolicy(tb, scn, kd.app, pol, oracle)
			if err != nil {
				return nil, err
			}
			if oracle && refined != nil {
				// Hindsight refinement: cache-conflict traffic depends on
				// where chunks land, so the label trace (recorded under a
				// different placement) can misrank near-tied chunks.
				// Re-solve on the traffic measured under the oracle's own
				// placement and keep whichever round measured better —
				// both are legitimate hindsight placements.
				cell2, _, err := runShootoutPolicy(tb, scn, kd.app, atmem.OraclePolicy(refined), false)
				if err != nil {
					return nil, err
				}
				if cell2.FastAccessShare > cell.FastAccessShare {
					cell = cell2
				}
			}
			shares[kd.app][cell.Policy] = cell.FastAccessShare
			res.Cells = append(res.Cells, cell)
			if scn.Verbose {
				fmt.Printf("  [shootout] %-5s %-8s fast-share=%.3f ratio=%.3f iter=%.6fs\n",
					kd.app, cell.Policy, cell.FastAccessShare, cell.DataRatio, cell.IterSeconds)
			}
		}
	}

	// Gap accounting against the oracle ceiling.
	for i := range res.Cells {
		c := &res.Cells[i]
		c.GapToOracle = shares[c.App]["oracle"] - c.FastAccessShare
	}
	for _, kd := range data {
		s := shares[kd.app]
		gap := s["oracle"] - s["paper"]
		if gap <= 1e-9 || s["learned"]-s["paper"] >= 0.5*gap {
			res.GapClosedKernels++
		}
	}

	if scn.TraceDir != "" {
		if err := writeShootoutArtifact(scn.TraceDir, res); err != nil {
			return nil, err
		}
	}
	if scn.Assert {
		if err := res.checkBars(scn.GapBarKernels); err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkBars enforces the shootout's ordering invariants.
func (res *ShootoutResult) checkBars(gapBarKernels int) error {
	shares := make(map[string]map[string]float64)
	for _, c := range res.Cells {
		if shares[c.App] == nil {
			shares[c.App] = make(map[string]float64)
		}
		shares[c.App][c.Policy] = c.FastAccessShare
	}
	const eps = 1e-9
	for app, s := range shares {
		if s["oracle"]+eps < s["paper"] {
			return fmt.Errorf("harness: shootout bar: oracle fast-share %.4f < paper %.4f on %s",
				s["oracle"], s["paper"], app)
		}
		if s["paper"]+eps < s["static"] {
			return fmt.Errorf("harness: shootout bar: paper fast-share %.4f < static %.4f on %s",
				s["paper"], s["static"], app)
		}
	}
	if gapBarKernels > 0 && res.GapClosedKernels < gapBarKernels {
		return fmt.Errorf("harness: shootout bar: learned closed >=50%% of the paper->oracle gap on %d kernels, want >= %d",
			res.GapClosedKernels, gapBarKernels)
	}
	return nil
}

// writeShootoutArtifact writes the machine-readable result JSON.
func writeShootoutArtifact(dir string, res *ShootoutResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: shootout artifact dir: %w", err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "policy-shootout.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("harness: shootout artifact: %w", err)
	}
	return nil
}

// ShootoutReportOf renders a shootout result as the per-kernel
// per-policy scorecard table (shared by the experiment and
// atmem-report -shootout).
func ShootoutReportOf(res *ShootoutResult) *Report {
	rep := &Report{
		ID: "policy-shootout",
		Title: fmt.Sprintf("Placement-policy shootout: %s on %s, %.0f%% fast budget",
			res.Testbed, res.Dataset, res.BudgetFraction*100),
		Columns: []string{"app", "policy", "fast-share", "data-ratio",
			"iter(s)", "mig(s)", "moved(MiB)", "gap-to-oracle"},
	}
	for _, c := range res.Cells {
		gap := "-"
		if c.Policy != "oracle" {
			gap = pct(c.GapToOracle)
		}
		rep.AddRow(c.App, c.Policy,
			pct(c.FastAccessShare), pct(c.DataRatio),
			secs(c.IterSeconds), secs(c.MigrationSeconds),
			fmt.Sprintf("%.1f", float64(c.MovedBytes)/(1<<20)),
			gap)
	}
	rep.AddNote("fast-share is the measured iteration's read+write+writeback traffic served by the fast tier; the oracle row is the hindsight ceiling at the same budget, static the frozen first-fit floor")
	rep.AddNote("learned ranker trained in-process on %d chunks / %d pairs (violations %d -> %d); it closed >=50%% of the paper->oracle gap on %d of %d kernels",
		res.Train.Samples, res.Train.Pairs, res.Train.InitialViolations,
		res.Train.FinalViolations, res.GapClosedKernels, res.Kernels)
	return rep
}

// policyShootout is the experiment wrapper.
func policyShootout(s *Suite) ([]*Report, error) {
	scn := DefaultShootoutScenario()
	scn.TraceDir = s.TraceDir
	scn.Verbose = s.Verbose
	res, err := RunPolicyShootout(scn)
	if err != nil {
		return nil, err
	}
	return []*Report{ShootoutReportOf(res)}, nil
}
