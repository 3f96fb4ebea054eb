// Package core implements the paper's primary contribution: ATMem's
// analyzer. It turns registered data objects into adaptive-granularity
// data chunks (§4.1), ranks chunks inside each object with the hybrid
// local selection of Eq. 1–3 (§4.2), patches sampling loss with the m-ary
// tree-based global promotion of Eq. 4–5 (§4.3), and emits a placement
// plan of contiguous ranges for the optimizer to migrate (§4.4).
package core

import (
	"fmt"
	"sort"

	"atmem/internal/pebs"
)

// Config holds the analyzer's tunables. The zero value is not usable; use
// DefaultConfig and override fields.
type Config struct {
	// TargetChunksPerObject controls adaptive chunk granularity: the
	// chunk size of an object is chosen so the object splits into about
	// this many chunks (§4.1), bounded by the chunk size limits below.
	// More chunks means finer placement but more metadata and profiling
	// sensitivity.
	TargetChunksPerObject int
	// MinChunkBytes and MaxChunkBytes bound the adaptive chunk size.
	// The minimum must be at least a page for migration to make sense.
	MinChunkBytes uint64
	MaxChunkBytes uint64
	// PercentileN is the conventional top-N anchor of Eq. 2 (P_n): when
	// the derivative-based split degenerates (a flat priority
	// distribution), the threshold falls back to this percentile.
	PercentileN float64
	// M is the arity of the promotion tree (§4.3.1).
	M int
	// BaseTRThreshold is θ(TR), the pre-adaptation tree-ratio threshold
	// of Eq. 5.
	BaseTRThreshold float64
	// Epsilon is ε of Eq. 5, the theoretical minimum tree-ratio
	// threshold. Zero means "use 1/M" (the paper's octree example uses
	// ε = 0.125 = 1/8). Sweeping this knob produces Figures 9 and 10.
	Epsilon float64
	// FloorFraction scales the theoretical minimum priority floor of
	// Eq. 2: a chunk must have at least FloorFraction of one sample's
	// worth of priority to be sampled-critical.
	FloorFraction float64
	// TargetSamplesPerChunk feeds the profiler's automatic sampling
	// period (§5.1).
	TargetSamplesPerChunk float64
	// DispersionThreshold classifies an object as Uniform when the
	// variance-to-mean ratio of its per-chunk sample counts falls
	// below it (pure Poisson noise gives ≈ 1).
	DispersionThreshold float64
	// UniformHotFactor decides uniform objects globally: a uniform
	// object is selected whole when its mean priority exceeds this
	// multiple of the cross-object average density.
	UniformHotFactor float64
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation unless a knob is being swept.
func DefaultConfig() Config {
	return Config{
		TargetChunksPerObject: 256,
		MinChunkBytes:         16 << 10,
		MaxChunkBytes:         4 << 20,
		PercentileN:           90,
		M:                     4,
		BaseTRThreshold:       0.5,
		Epsilon:               0, // 1/M
		FloorFraction:         0.99,
		TargetSamplesPerChunk: 32,
		DispersionThreshold:   2.5,
		UniformHotFactor:      2,
	}
}

// EffectiveEpsilon resolves the ε default.
func (c Config) EffectiveEpsilon() float64 {
	if c.Epsilon > 0 {
		return c.Epsilon
	}
	if c.M > 0 {
		return 1 / float64(c.M)
	}
	return 0.25
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TargetChunksPerObject <= 0 {
		return fmt.Errorf("core: TargetChunksPerObject must be positive")
	}
	if c.MinChunkBytes == 0 || c.MinChunkBytes&(c.MinChunkBytes-1) != 0 {
		return fmt.Errorf("core: MinChunkBytes must be a positive power of two")
	}
	if c.MaxChunkBytes < c.MinChunkBytes {
		return fmt.Errorf("core: MaxChunkBytes below MinChunkBytes")
	}
	if c.PercentileN < 0 || c.PercentileN > 100 {
		return fmt.Errorf("core: PercentileN out of [0,100]")
	}
	if c.M < 2 {
		return fmt.Errorf("core: tree arity M must be at least 2")
	}
	if c.BaseTRThreshold <= 0 || c.BaseTRThreshold > 1 {
		return fmt.Errorf("core: BaseTRThreshold must be in (0,1]")
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("core: Epsilon must be in [0,1]")
	}
	if c.DispersionThreshold < 0 {
		return fmt.Errorf("core: DispersionThreshold must be non-negative")
	}
	if c.UniformHotFactor <= 0 {
		return fmt.Errorf("core: UniformHotFactor must be positive")
	}
	return nil
}

// DataObject is one registered allocation (a d_i of §4.1), divided into
// NumChunks equal-sized data chunks DC_ij. The final chunk may be
// logically short when the object size is not a multiple of the chunk
// size; accounting always clips to the object's true size.
type DataObject struct {
	// ID is the registration order index.
	ID int
	// Name is the caller-supplied label (for reports only).
	Name string
	// Base and Size delimit the object's virtual address range.
	Base uint64
	Size uint64
	// ChunkSize is the adaptive chunk granularity chosen at
	// registration.
	ChunkSize uint64
	// NumChunks is ceil(Size/ChunkSize).
	NumChunks int

	// readSamples and writeSamples count attributed profiler samples
	// per chunk.
	readSamples  []uint64
	writeSamples []uint64
	// cold counts, per chunk, the consecutive placement epochs the
	// chunk has held fast-tier bytes outside the plan (see Advance).
	cold []int
}

// ChunkSizeFor computes the adaptive chunk size for an object of the given
// size (§4.1): the largest power of two that still yields about
// TargetChunksPerObject chunks, clamped to the configured bounds.
func ChunkSizeFor(size uint64, cfg Config) uint64 {
	if size == 0 {
		return cfg.MinChunkBytes
	}
	want := size / uint64(cfg.TargetChunksPerObject)
	cs := cfg.MinChunkBytes
	for cs < want && cs < cfg.MaxChunkBytes {
		cs <<= 1
	}
	if cs > cfg.MaxChunkBytes {
		cs = cfg.MaxChunkBytes
	}
	return cs
}

// ChunkRange returns the byte range [lo, hi) of chunk j, clipped to the
// object's size.
func (o *DataObject) ChunkRange(j int) (lo, hi uint64) {
	lo = o.Base + uint64(j)*o.ChunkSize
	hi = lo + o.ChunkSize
	if end := o.Base + o.Size; hi > end {
		hi = end
	}
	return lo, hi
}

// ChunkBytes returns the length of chunk j in bytes.
func (o *DataObject) ChunkBytes(j int) uint64 {
	lo, hi := o.ChunkRange(j)
	return hi - lo
}

// ReadSamples exposes the per-chunk read-miss sample counts.
func (o *DataObject) ReadSamples() []uint64 { return o.readSamples }

// WriteSamples exposes the per-chunk write-miss sample counts.
func (o *DataObject) WriteSamples() []uint64 { return o.writeSamples }

// Registry tracks all registered data objects and attributes profiler
// samples to chunks. It is not safe for concurrent mutation; the runtime
// serializes registration and analysis between phases.
type Registry struct {
	cfg     Config
	objects []*DataObject // sorted by Base
	nextID  int
}

// NewRegistry builds an empty registry. It panics on invalid cfg.
func NewRegistry(cfg Config) *Registry {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Registry{cfg: cfg}
}

// Config returns the analyzer configuration in force.
func (r *Registry) Config() Config { return r.cfg }

// SetConfig replaces the configuration. Chunk sizes of already registered
// objects are unchanged.
func (r *Registry) SetConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.cfg = cfg
	return nil
}

// Register adds an object at [base, base+size). Objects must not overlap.
func (r *Registry) Register(name string, base, size uint64) (*DataObject, error) {
	if size == 0 {
		return nil, fmt.Errorf("core: register %q with zero size", name)
	}
	i := sort.Search(len(r.objects), func(i int) bool { return r.objects[i].Base >= base })
	if i < len(r.objects) && r.objects[i].Base < base+size {
		return nil, fmt.Errorf("core: register %q overlaps %q", name, r.objects[i].Name)
	}
	if i > 0 && r.objects[i-1].Base+r.objects[i-1].Size > base {
		return nil, fmt.Errorf("core: register %q overlaps %q", name, r.objects[i-1].Name)
	}
	cs := ChunkSizeFor(size, r.cfg)
	n := int((size + cs - 1) / cs)
	o := &DataObject{
		ID:           r.nextID,
		Name:         name,
		Base:         base,
		Size:         size,
		ChunkSize:    cs,
		NumChunks:    n,
		readSamples:  make([]uint64, n),
		writeSamples: make([]uint64, n),
		cold:         make([]int, n),
	}
	r.nextID++
	r.objects = append(r.objects, nil)
	copy(r.objects[i+1:], r.objects[i:])
	r.objects[i] = o
	return o, nil
}

// Unregister removes the object based at base.
func (r *Registry) Unregister(base uint64) error {
	i := sort.Search(len(r.objects), func(i int) bool { return r.objects[i].Base >= base })
	if i == len(r.objects) || r.objects[i].Base != base {
		return fmt.Errorf("core: unregister of unknown base %#x", base)
	}
	r.objects = append(r.objects[:i], r.objects[i+1:]...)
	return nil
}

// Objects returns the registered objects in address order. The slice must
// not be mutated.
func (r *Registry) Objects() []*DataObject { return r.objects }

// Find returns the object containing addr and the chunk index within it.
func (r *Registry) Find(addr uint64) (*DataObject, int, bool) {
	i := sort.Search(len(r.objects), func(i int) bool { return r.objects[i].Base > addr })
	if i == 0 {
		return nil, 0, false
	}
	o := r.objects[i-1]
	if addr >= o.Base+o.Size {
		return nil, 0, false
	}
	return o, int((addr - o.Base) / o.ChunkSize), true
}

// AttributeSamples folds profiler samples into per-chunk counters.
// Samples outside registered objects (stack, runtime noise) are dropped,
// as the real ATMem drops samples that do not resolve to a registered
// allocation. It returns how many samples were attributed.
func (r *Registry) AttributeSamples(samples []pebs.Sample) int {
	attributed := 0
	for _, s := range samples {
		o, j, ok := r.Find(s.Addr)
		if !ok {
			continue
		}
		if s.Write {
			o.writeSamples[j]++
		} else {
			o.readSamples[j]++
		}
		attributed++
	}
	return attributed
}

// ResetSamples zeroes all per-chunk counters.
func (r *Registry) ResetSamples() {
	for _, o := range r.objects {
		for j := range o.readSamples {
			o.readSamples[j] = 0
			o.writeSamples[j] = 0
		}
	}
}

// TotalBytes sums the sizes of all registered objects.
func (r *Registry) TotalBytes() uint64 {
	var n uint64
	for _, o := range r.objects {
		n += o.Size
	}
	return n
}

// TotalChunks sums the chunk counts of all registered objects.
func (r *Registry) TotalChunks() int {
	n := 0
	for _, o := range r.objects {
		n += o.NumChunks
	}
	return n
}
