package core

// This file is the learning-to-rank placement policy (ROADMAP item #2,
// following "Learning to Rank Graph-based Application Objects on
// Heterogeneous Memories"): chunks are featurized from the telemetry
// the runtime already collects, a linear pairwise ranker orders them,
// and a greedy fill turns the ordering into a plan. Training is offline
// (cmd/atmem-train) against full-trace heat labels; the weights
// serialize as JSON.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Feature indices of a FeatureVector. The schema is versioned through
// Weights.Version: a reordered or extended vector must bump it.
const (
	// FeatBias is the constant 1 (irrelevant to ranking; kept so the
	// vector is usable in score-calibration contexts).
	FeatBias = iota
	// FeatReadDensity is log1p of the chunk's read-miss priority
	// (samples x period / byte) — Eq. 1's PR_local.
	FeatReadDensity
	// FeatWriteDensity is log1p of the write-miss priority.
	FeatWriteDensity
	// FeatSizeLog is log2 of the chunk size: granularity context the
	// adaptive chunking encodes.
	FeatSizeLog
	// FeatShare is the chunk's share of its object's samples —
	// intra-object skew.
	FeatShare
	// FeatNeighborHeat is log1p of the mean read density of the
	// adjacent chunks: a reuse-distance proxy (hot neighborhoods keep
	// their lines resident; an isolated spike does not), and the signal
	// the analyzer's tree promotion exploits spatially.
	FeatNeighborHeat
	// FeatObjEntropy is the normalized entropy of the object's
	// per-chunk sample distribution — a stride-entropy proxy (uniform
	// streaming ≈ 1, concentrated hub access ≈ 0).
	FeatObjEntropy
	// FeatObjFraction is the object's share of the registered
	// footprint.
	FeatObjFraction
	// FeatPhase is the breaker epoch (phase id) the profile belongs
	// to.
	FeatPhase
	// NumFeatures is the vector length.
	NumFeatures
)

// FeatureNames names the schema positions for the serialized weights.
var FeatureNames = [NumFeatures]string{
	"bias", "read_density", "write_density", "size_log", "share",
	"neighbor_heat", "obj_entropy", "obj_fraction", "phase",
}

// FeatureVector is one chunk's feature values, indexed by the Feat*
// constants.
type FeatureVector [NumFeatures]float64

// ChunkFeatures is one chunk's features with its identity, for joining
// against heat-trace labels.
type ChunkFeatures struct {
	Object string
	Chunk  int
	F      FeatureVector
}

// Featurize extracts the feature vector of every chunk in the registry
// from the attributed sample counters. It is deterministic: objects are
// walked in address order on the calling goroutine only, so the same
// attributed counters produce bit-identical vectors regardless of
// GOMAXPROCS or prior scheduling.
func Featurize(r *Registry, period uint64, epoch int) []ChunkFeatures {
	objs := r.Objects()
	total := r.TotalBytes()
	out := make([]ChunkFeatures, 0, r.TotalChunks())
	for _, o := range objs {
		var objSamples uint64
		for j := 0; j < o.NumChunks; j++ {
			objSamples += o.readSamples[j] + o.writeSamples[j]
		}
		entropy := sampleEntropy(o)
		objFrac := 0.0
		if total > 0 {
			objFrac = float64(o.Size) / float64(total)
		}
		for j := 0; j < o.NumChunks; j++ {
			var f FeatureVector
			f[FeatBias] = 1
			f[FeatReadDensity] = math.Log1p(readDensity(o, j, period))
			f[FeatWriteDensity] = math.Log1p(writeDensity(o, j, period))
			f[FeatSizeLog] = math.Log2(float64(o.ChunkBytes(j)))
			if objSamples > 0 {
				f[FeatShare] = float64(o.readSamples[j]+o.writeSamples[j]) / float64(objSamples)
			}
			var nsum float64
			var ncnt int
			if j > 0 {
				nsum += readDensity(o, j-1, period)
				ncnt++
			}
			if j+1 < o.NumChunks {
				nsum += readDensity(o, j+1, period)
				ncnt++
			}
			if ncnt > 0 {
				f[FeatNeighborHeat] = math.Log1p(nsum / float64(ncnt))
			}
			f[FeatObjEntropy] = entropy
			f[FeatObjFraction] = objFrac
			f[FeatPhase] = float64(epoch)
			out = append(out, ChunkFeatures{Object: o.Name, Chunk: j, F: f})
		}
	}
	return out
}

// writeDensity returns chunk j's write-miss priority in PR units.
func writeDensity(o *DataObject, j int, period uint64) float64 {
	b := o.ChunkBytes(j)
	if b == 0 {
		return 0
	}
	return float64(o.writeSamples[j]) * float64(period) / float64(b)
}

// sampleEntropy computes the normalized Shannon entropy of an object's
// per-chunk total-sample distribution: 1 for perfectly uniform access,
// 0 for all samples on one chunk (or no samples / a single chunk).
func sampleEntropy(o *DataObject) float64 {
	if o.NumChunks < 2 {
		return 0
	}
	var total float64
	for j := 0; j < o.NumChunks; j++ {
		total += float64(o.readSamples[j] + o.writeSamples[j])
	}
	if total == 0 {
		return 0
	}
	var h float64
	for j := 0; j < o.NumChunks; j++ {
		p := float64(o.readSamples[j]+o.writeSamples[j]) / total
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h / math.Log(float64(o.NumChunks))
}

// Weights is a trained linear ranking model over the feature schema,
// serialized as JSON by cmd/atmem-train and loaded by the learned
// policy. Scores are computed on standardized features:
// score = Σ w_i · (f_i − mean_i) / scale_i.
type Weights struct {
	// Version is the feature-schema version; see WeightsVersion.
	Version int `json:"version"`
	// Features echoes FeatureNames at training time, as a
	// human-readable schema check.
	Features []string `json:"features"`
	// Mean and Scale standardize features to the training
	// distribution.
	Mean  []float64 `json:"mean"`
	Scale []float64 `json:"scale"`
	// W are the learned weights.
	W []float64 `json:"weights"`
}

// WeightsVersion is the current feature-schema version.
const WeightsVersion = 1

// Validate reports schema mismatches between the weights and this
// build's feature extractor.
func (w *Weights) Validate() error {
	if w.Version != WeightsVersion {
		return fmt.Errorf("core: weights version %d, want %d", w.Version, WeightsVersion)
	}
	if len(w.W) != NumFeatures || len(w.Mean) != NumFeatures || len(w.Scale) != NumFeatures {
		return fmt.Errorf("core: weights carry %d/%d/%d weight/mean/scale entries, want %d",
			len(w.W), len(w.Mean), len(w.Scale), NumFeatures)
	}
	for i, s := range w.Scale {
		if s <= 0 {
			return fmt.Errorf("core: non-positive feature scale at %q", FeatureNames[i])
		}
	}
	return nil
}

// Score returns the ranking score of one feature vector.
func (w *Weights) Score(f FeatureVector) float64 {
	var s float64
	for i := 0; i < NumFeatures; i++ {
		s += w.W[i] * (f[i] - w.Mean[i]) / w.Scale[i]
	}
	return s
}

// MarshalJSONIndented serializes the weights for the on-disk format.
func (w *Weights) MarshalJSONIndented() ([]byte, error) {
	return json.MarshalIndent(w, "", "  ")
}

// WeightsFromJSON parses and validates serialized weights.
func WeightsFromJSON(data []byte) (Weights, error) {
	var w Weights
	if err := json.Unmarshal(data, &w); err != nil {
		return Weights{}, fmt.Errorf("core: parse weights: %w", err)
	}
	if err := w.Validate(); err != nil {
		return Weights{}, err
	}
	return w, nil
}

// TrainSample is one labeled chunk: its features from a sampled
// profile, and its true heat (PR units) from a full-trace recording of
// the same workload.
type TrainSample struct {
	F     FeatureVector
	Label float64
}

// TrainConfig tunes the pairwise trainer. The zero value takes the
// defaults.
type TrainConfig struct {
	// Iters is the number of full-batch gradient iterations (default
	// 200).
	Iters int
	// LearnRate is the gradient step (default 0.05).
	LearnRate float64
	// L2 is the ridge penalty (default 1e-3).
	L2 float64
	// MarginFactor is the minimum relative label gap for a pair to
	// train on: hi > lo·MarginFactor (default 1.05) — near-ties carry
	// no ordering signal.
	MarginFactor float64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Iters == 0 {
		c.Iters = 200
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.05
	}
	if c.L2 == 0 {
		c.L2 = 1e-3
	}
	if c.MarginFactor == 0 {
		c.MarginFactor = 1.05
	}
	return c
}

// TrainStats summarizes a training run.
type TrainStats struct {
	// Samples and Pairs count the inputs.
	Samples int
	Pairs   int
	// InitialViolations and FinalViolations count misordered pairs
	// before and after training.
	InitialViolations int
	FinalViolations   int
	// Loss is the final mean logistic pair loss.
	Loss float64
}

// TrainPairwise fits a linear RankNet-style pairwise ranker: samples
// are sorted by label, pairs are enumerated at exponentially growing
// offsets (so both near and far orderings constrain the model), and
// full-batch gradient descent minimizes the logistic pair loss
// log(1+exp(−(s_hi − s_lo))). The procedure is deterministic — fixed
// iteration order, no randomness — so identical inputs produce
// identical weights.
func TrainPairwise(samples []TrainSample, cfg TrainConfig) (Weights, TrainStats, error) {
	cfg = cfg.withDefaults()
	st := TrainStats{Samples: len(samples)}
	if len(samples) < 2 {
		return Weights{}, st, fmt.Errorf("core: pairwise training needs at least 2 samples, got %d", len(samples))
	}

	// Standardize features to the training distribution.
	w := Weights{
		Version:  WeightsVersion,
		Features: FeatureNames[:],
		Mean:     make([]float64, NumFeatures),
		Scale:    make([]float64, NumFeatures),
		W:        make([]float64, NumFeatures),
	}
	n := float64(len(samples))
	for i := 0; i < NumFeatures; i++ {
		var sum float64
		for _, s := range samples {
			sum += s.F[i]
		}
		w.Mean[i] = sum / n
		var varSum float64
		for _, s := range samples {
			d := s.F[i] - w.Mean[i]
			varSum += d * d
		}
		w.Scale[i] = math.Sqrt(varSum / n)
		if w.Scale[i] < 1e-12 {
			// A constant feature (bias, single-phase runs): neutralize
			// rather than divide by ~0.
			w.Scale[i] = 1
		}
	}
	norm := make([]FeatureVector, len(samples))
	for k, s := range samples {
		for i := 0; i < NumFeatures; i++ {
			norm[k][i] = (s.F[i] - w.Mean[i]) / w.Scale[i]
		}
	}

	// Pair enumeration: indices sorted by descending label, each
	// paired with the sample offset positions below it.
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return samples[order[a]].Label > samples[order[b]].Label
	})
	type pair struct{ hi, lo int }
	var pairs []pair
	for off := 1; off < len(samples); off *= 2 {
		for i := 0; i+off < len(order); i++ {
			hi, lo := order[i], order[i+off]
			lh, ll := samples[hi].Label, samples[lo].Label
			if lh <= ll*cfg.MarginFactor || lh-ll < 1e-12 {
				continue
			}
			pairs = append(pairs, pair{hi, lo})
		}
	}
	st.Pairs = len(pairs)
	if len(pairs) == 0 {
		return Weights{}, st, fmt.Errorf("core: no informative pairs (flat labels)")
	}

	score := func(weights []float64, k int) float64 {
		var s float64
		for i := 0; i < NumFeatures; i++ {
			s += weights[i] * norm[k][i]
		}
		return s
	}
	violations := func(weights []float64) int {
		v := 0
		for _, p := range pairs {
			if score(weights, p.hi) <= score(weights, p.lo) {
				v++
			}
		}
		return v
	}
	st.InitialViolations = violations(w.W)

	grad := make([]float64, NumFeatures)
	for iter := 0; iter < cfg.Iters; iter++ {
		for i := range grad {
			grad[i] = cfg.L2 * w.W[i]
		}
		for _, p := range pairs {
			d := score(w.W, p.hi) - score(w.W, p.lo)
			// dLoss/dd = −σ(−d); clamp the exponent for numeric safety.
			var sig float64
			switch {
			case d > 30:
				sig = 0
			case d < -30:
				sig = 1
			default:
				sig = 1 / (1 + math.Exp(d))
			}
			for i := 0; i < NumFeatures; i++ {
				grad[i] -= sig * (norm[p.hi][i] - norm[p.lo][i]) / float64(len(pairs))
			}
		}
		for i := range w.W {
			w.W[i] -= cfg.LearnRate * grad[i]
		}
	}

	st.FinalViolations = violations(w.W)
	var loss float64
	for _, p := range pairs {
		d := score(w.W, p.hi) - score(w.W, p.lo)
		loss += math.Log1p(math.Exp(-d))
	}
	st.Loss = loss / float64(len(pairs))
	return w, st, nil
}

// LearnedRankPolicy scores chunks with trained weights and fills the
// budget greedily by score. An evidence gate keeps it honest: only
// chunks that were sampled, or whose immediate neighbor was (the same
// spatial benefit-of-the-doubt as the analyzer's tree promotion), are
// candidates — the model ranks observed heat, it does not hallucinate
// placement for untouched data.
type LearnedRankPolicy struct {
	// W are the trained, validated weights.
	W Weights
	// Source labels where the weights came from (a path for
	// file-loaded weights); it feeds the fingerprint only.
	Source string
}

// Name implements PlacementPolicy.
func (l *LearnedRankPolicy) Name() string { return "learned" }

// Fingerprint implements PlacementPolicy: it covers the weight values,
// so retrained weights invalidate cached plans.
func (l *LearnedRankPolicy) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	for _, vs := range [][]float64{l.W.W, l.W.Mean, l.W.Scale} {
		for _, v := range vs {
			bits := math.Float64bits(v)
			for k := 0; k < 8; k++ {
				buf[k] = byte(bits >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("learned/v%d weights=%016x", l.W.Version, h.Sum64())
}

// Validate reports malformed weights; the runtime surfaces it at
// construction.
func (l *LearnedRankPolicy) Validate() error { return l.W.Validate() }

// Rank implements PlacementPolicy.
func (l *LearnedRankPolicy) Rank(p PolicyProfile, budgetBytes uint64, obs StageObserver) (*Plan, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	objs := p.Registry.Objects()
	if obs != nil {
		obs.StageBegin("rank")
	}
	feats := Featurize(p.Registry, p.Period, p.Epoch)
	cs := newChunkScores(objs)
	index := make(map[string]int, len(objs))
	for i, o := range objs {
		index[o.Name] = i
	}
	cands := 0
	for _, cf := range feats {
		i, ok := index[cf.Object]
		if !ok {
			continue
		}
		o := objs[i]
		j := cf.Chunk
		sampled := o.readSamples[j]+o.writeSamples[j] > 0
		neighbor := (j > 0 && o.readSamples[j-1]+o.writeSamples[j-1] > 0) ||
			(j+1 < o.NumChunks && o.readSamples[j+1]+o.writeSamples[j+1] > 0)
		if !sampled && !neighbor {
			continue
		}
		cs.Cand[i][j] = true
		cs.Score[i][j] = l.W.Score(cf.F)
		cs.Density[i][j] = totalDensity(o, j, p.Period)
		cands++
	}
	if obs != nil {
		obs.StageEnd("rank", map[string]any{
			"objects":          len(objs),
			"candidate_chunks": cands,
		})
	}
	return greedyPlan(objs, cs, budgetBytes, obs), nil
}
