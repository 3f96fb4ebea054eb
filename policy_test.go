package atmem

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"atmem/internal/core"
)

// trainedTestWeights fits a tiny valid weight vector for tests that
// need a constructible learned policy.
func trainedTestWeights(t *testing.T) core.Weights {
	t.Helper()
	samples := make([]core.TrainSample, 0, 64)
	for i := 0; i < 64; i++ {
		var f core.FeatureVector
		f[core.FeatBias] = 1
		f[core.FeatReadDensity] = float64(i % 13)
		f[core.FeatSizeLog] = 21
		samples = append(samples, core.TrainSample{F: f, Label: f[core.FeatReadDensity]})
	}
	w, _, err := core.TrainPairwise(samples, core.TrainConfig{Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPolicyConstructionValidation is the construction gate, table
// driven per the API contract: invalid configurations fail at New with
// typed errors, never at the first Malloc or Optimize.
func TestPolicyConstructionValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    []Option
		wantErr error // nil = any non-nil error acceptable
		ok      bool
	}{
		{"default", nil, nil, true},
		{"explicit-nil", []Option{WithPlacementPolicy(nil)}, ErrNilPolicy, false},
		{"nil-after-paper", []Option{WithPlacementPolicy(PaperPolicy()), WithPlacementPolicy(nil)}, ErrNilPolicy, false},
		{"paper", []Option{WithPlacementPolicy(PaperPolicy())}, nil, true},
		{"all-fast", []Option{WithPlacementPolicy(AllFastPolicy())}, nil, true},
		{"prefer-fast", []Option{WithPlacementPolicy(PreferFastPolicy())}, nil, true},
		{"static", []Option{WithPlacementPolicy(StaticPolicy())}, nil, true},
		{"oracle-no-trace", []Option{WithPlacementPolicy(OraclePolicy(nil))}, nil, false},
		{"learned-missing-file", []Option{WithPlacementPolicy(LearnedPolicy("/nonexistent/weights.json"))}, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(NVMDRAM(), tc.opts...)
			if tc.ok {
				if err != nil {
					t.Fatalf("construction failed: %v", err)
				}
				if rt.PlacementPolicy() == nil {
					t.Fatal("no effective policy resolved")
				}
				return
			}
			if err == nil {
				t.Fatal("invalid configuration accepted")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want errors.Is(%v)", err, tc.wantErr)
			}
		})
	}
}

// TestLearnedPolicyLoadsFromFile pins the file path of the learned
// constructor: weights written the way cmd/atmem-train writes them
// construct cleanly, and a corrupt file fails at New.
func TestLearnedPolicyLoadsFromFile(t *testing.T) {
	w := trainedTestWeights(t)
	data, err := w.MarshalJSONIndented()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "weights.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rt, err := New(NVMDRAM(), WithPlacementPolicy(LearnedPolicy(path)))
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.PlacementPolicy().Name(); got != "learned" {
		t.Errorf("policy name = %q", got)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{\"version\": 99}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(NVMDRAM(), WithPlacementPolicy(LearnedPolicy(bad))); err == nil {
		t.Error("malformed weights accepted at construction")
	}
}

// TestEnumInterfaceEquivalence pins the four placements the retired
// Policy enum named (baseline, all-fast, prefer-fast, atmem) against the
// PlacementPolicy values that replace them: each keeps the analyzer
// fingerprint recorded plans are keyed by, the enum's name where it had
// one of its own, and the enum's allocation-time placement.
func TestEnumInterfaceEquivalence(t *testing.T) {
	cases := []struct {
		enum string
		pol  PlacementPolicy
		name string
		fast bool
	}{
		{"baseline", PaperPolicy(), "paper", false},
		{"all-fast", AllFastPolicy(), "all-fast", true},
		{"prefer-fast", PreferFastPolicy(), "prefer-fast", true},
		{"atmem", PaperPolicy(), "paper", false},
	}
	for _, tc := range cases {
		t.Run(tc.enum, func(t *testing.T) {
			if tc.pol.Name() != tc.name {
				t.Errorf("Name() = %q, want %q", tc.pol.Name(), tc.name)
			}
			if fp := tc.pol.Fingerprint(); fp != "analyzer/v1" {
				t.Errorf("Fingerprint() = %q, want analyzer/v1", fp)
			}
			rt, err := New(NVMDRAM(), WithPlacementPolicy(tc.pol))
			if err != nil {
				t.Fatal(err)
			}
			obj, err := rt.Malloc("x", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if onFast := obj.FastBytes() == obj.Size(); onFast != tc.fast {
				t.Errorf("fastBytes=%d of %d, want fast=%v", obj.FastBytes(), obj.Size(), tc.fast)
			}
		})
	}
}

// profileAndOptimize runs the shared equivalence workload: a hot/cold
// array pair, a strided profiled scan of the hot one, then Optimize.
func profileAndOptimize(t *testing.T, rt *Runtime) map[string][2]uint64 {
	t.Helper()
	hot, err := NewArray[uint64](rt, "hot", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewArray[uint64](rt, "cold", 256<<10); err != nil {
		t.Fatal(err)
	}
	fillDeterministic(hot, 3)
	rt.ProfilingStart()
	scanPhase(rt, "scan", hot)
	rt.ProfilingStop()
	if _, err := rt.Optimize(); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][2]uint64)
	for _, o := range rt.Objects() {
		out[o.Name()] = [2]uint64{o.FastBytes(), o.Size()}
	}
	return out
}

// TestPaperPolicyPlacementUnchanged is the regression pin for the
// default policy: the paper analyzer installed through
// WithPlacementPolicy must land byte-for-byte the same placement as a
// runtime built without one on an identical deterministic workload.
// (The plan-level byte identity is pinned in core's
// TestAnalyzerPolicyPlansByteIdentical; this covers the full runtime
// path.)
func TestPaperPolicyPlacementUnchanged(t *testing.T) {
	viaDefault, err := New(NVMDRAM(), WithSamplePeriod(64))
	if err != nil {
		t.Fatal(err)
	}
	viaIface, err := New(NVMDRAM(), WithPlacementPolicy(PaperPolicy()), WithSamplePeriod(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := viaDefault.PlacementPolicy().Name(); got != "paper" {
		t.Errorf("default policy = %q, want paper", got)
	}
	a := profileAndOptimize(t, viaDefault)
	b := profileAndOptimize(t, viaIface)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("placements diverged:\n default:   %v\n interface: %v", a, b)
	}
	if a["hot"][0] == 0 {
		t.Error("nothing promoted — the workload did not exercise placement")
	}
}

// TestPlanStaleOnPolicyFingerprintChange pins satellite contract #3: a
// compiled plan recorded under one placement policy must not replay
// under a policy with a different fingerprint — swapping in a learned
// or oracle policy degrades the lookup to LookupStale and the run falls
// back to the online loop.
func TestPlanStaleOnPolicyFingerprintChange(t *testing.T) {
	pc := NewPlanCache()
	rec, hot := replayFixture(t, pc)
	sig := rec.BuildSignature("synthetic", 0x1234, []string{"scan"})
	if v, err := rec.ArmPlan(sig); err != nil || v != LookupMiss {
		t.Fatalf("recording ArmPlan = (%v, %v), want miss", v, err)
	}
	epochOn(t, rec, "e1", hot)
	if _, err := rec.FinishPlan(); err != nil {
		t.Fatal(err)
	}

	// Control: an identically-configured runtime hits, and so do the
	// paper's ideal references — they share the analyzer fingerprint.
	for name, pol := range map[string]PlacementPolicy{
		"paper":       PaperPolicy(),
		"all-fast":    AllFastPolicy(),
		"prefer-fast": PreferFastPolicy(),
	} {
		rt, _ := replayFixture(t, pc, WithPlacementPolicy(pol))
		v, err := rt.ArmPlan(rt.BuildSignature("synthetic", 0x1234, []string{"scan"}))
		if err != nil {
			t.Fatal(err)
		}
		if v != LookupHit {
			t.Errorf("%s rearm verdict = %v, want hit", name, v)
		}
	}

	// A different policy fingerprint must stale the plan.
	learned := LearnedPolicyFromWeights(trainedTestWeights(t))
	oracle := OraclePolicy(&HeatTrace{Period: 1, Objects: map[string][]float64{"hot": {1, 2, 3}}})
	for name, pol := range map[string]PlacementPolicy{"learned": learned, "oracle": oracle} {
		rt, _ := replayFixture(t, pc, WithPlacementPolicy(pol))
		v, err := rt.ArmPlan(rt.BuildSignature("synthetic", 0x1234, []string{"scan"}))
		if err != nil {
			t.Fatal(err)
		}
		if v != LookupStale {
			t.Errorf("%s rearm verdict = %v, want stale", name, v)
		}
		if rt.Replaying() {
			t.Errorf("%s: stale plan armed for replay", name)
		}
	}
}

// TestFeatureExtractionDeterministic pins the learned pipeline's
// reproducibility across scheduler parallelism: the same simulated
// workload profiled under GOMAXPROCS=1 and under all cores must yield
// bit-identical feature vectors — sample attribution is commutative
// counter arithmetic and Featurize walks objects in address order.
func TestFeatureExtractionDeterministic(t *testing.T) {
	extract := func() []core.ChunkFeatures {
		rt, err := New(NVMDRAM(), WithSamplePeriod(64), WithThreads(8))
		if err != nil {
			t.Fatal(err)
		}
		hot, err := NewArray[uint64](rt, "hot", 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		fillDeterministic(hot, 5)
		rt.ProfilingStart()
		scanPhase(rt, "scan", hot)
		rt.ProfilingStop()
		return core.Featurize(rt.Registry(), rt.SamplePeriod(), 0)
	}

	prev := runtime.GOMAXPROCS(1)
	serial := extract()
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel := extract()
	runtime.GOMAXPROCS(prev)

	if !reflect.DeepEqual(serial, parallel) {
		t.Error("feature vectors differ between GOMAXPROCS=1 and parallel runs")
	}
	var sampled bool
	for _, cf := range serial {
		if cf.F[core.FeatReadDensity] > 0 {
			sampled = true
			break
		}
	}
	if !sampled {
		t.Error("workload produced no sampled features — determinism check is vacuous")
	}
}
