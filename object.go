package atmem

import (
	"fmt"
	"math/bits"
	"unsafe"

	"atmem/internal/core"
	"atmem/internal/memsim"
)

// Object is one registered simulated allocation: a contiguous virtual
// range divided into adaptive data chunks by the analyzer. Raw objects
// carry an optional byte backing; most code uses the typed Array views.
type Object struct {
	rt   *Runtime
	name string
	base uint64
	size uint64
	data []byte
	do   *core.DataObject
}

// Name returns the registration name.
func (o *Object) Name() string { return o.name }

// Base returns the simulated virtual base address.
func (o *Object) Base() uint64 { return o.base }

// Size returns the object size in bytes.
func (o *Object) Size() uint64 { return o.size }

// ChunkSize returns the adaptive chunk granularity the analyzer chose.
func (o *Object) ChunkSize() uint64 { return o.do.ChunkSize }

// NumChunks returns the chunk count.
func (o *Object) NumChunks() int { return o.do.NumChunks }

// Bytes returns the object's byte backing, allocating it on first use.
func (o *Object) Bytes() []byte {
	if o.data == nil {
		o.data = make([]byte, o.size)
	}
	return o.data
}

// FastBytes reports how many of the object's bytes currently reside on
// the high-performance memory.
func (o *Object) FastBytes() uint64 {
	return o.rt.sys.BytesOnTier(o.base, o.size)[memsim.TierFast]
}

// Element is the set of fixed-size numeric element types an Array can
// hold.
type Element interface {
	~int8 | ~uint8 | ~int16 | ~uint16 | ~int32 | ~uint32 |
		~int64 | ~uint64 | ~float32 | ~float64
}

// Array is a typed view over a registered Object: every Load/Store is
// simulated through the calling thread's memory access path (cache, TLB,
// tier latency and bandwidth) and lands on real Go memory, so kernels
// compute real results while the simulator accounts their cost.
type Array[T Element] struct {
	obj      *Object
	elems    []T
	elemSize uint64
	// elemShift is log2(elemSize). Elements are power-of-two sized and
	// objects huge-page aligned, so no element straddles a cache line
	// and each access is one Accessor.Elem.
	elemShift uint
}

// NewArray allocates and registers an array of n elements of type T under
// the given name, following the runtime's placement policy.
func NewArray[T Element](rt *Runtime, name string, n int) (*Array[T], error) {
	if n < 0 {
		return nil, fmt.Errorf("atmem: NewArray %q with negative length", name)
	}
	var zero T
	es := uint64(unsafe.Sizeof(zero))
	size := es * uint64(n)
	if size == 0 {
		size = es // keep zero-length arrays addressable
	}
	obj, err := rt.Malloc(name, size)
	if err != nil {
		return nil, err
	}
	a := &Array[T]{
		obj:       obj,
		elems:     make([]T, n),
		elemSize:  es,
		elemShift: uint(bits.TrailingZeros64(es)),
	}
	if n > 0 {
		// Alias the object's byte backing to the array storage, so the
		// CRC scrubber, injected corruption, and checksum invariants all
		// operate on the bytes kernels actually compute on, not a
		// shadow buffer.
		obj.data = unsafe.Slice((*byte)(unsafe.Pointer(&a.elems[0])), es*uint64(n))
	}
	return a, nil
}

// Free releases the array's simulated allocation.
func (a *Array[T]) Free() error {
	err := a.obj.rt.Free(a.obj)
	a.elems = nil
	return err
}

// Object returns the underlying registered object.
func (a *Array[T]) Object() *Object { return a.obj }

// Len returns the element count.
func (a *Array[T]) Len() int { return len(a.elems) }

// ElemSize returns the element size in bytes.
func (a *Array[T]) ElemSize() uint64 { return a.elemSize }

// Addr returns the simulated virtual address of element i.
func (a *Array[T]) Addr(i int) uint64 {
	return a.obj.base + uint64(i)*a.elemSize
}

// Load reads element i through the simulated memory system.
func (a *Array[T]) Load(c *Ctx, i int) T {
	c.acc.Elem(a.Addr(i), false)
	return a.elems[i]
}

// Store writes element i through the simulated memory system.
func (a *Array[T]) Store(c *Ctx, i int, v T) {
	c.acc.Elem(a.Addr(i), true)
	a.elems[i] = v
}

// SimLoad charges a simulated read of element i without touching the
// backing data — used by kernels that read the element through an atomic
// operation on Raw() (the simulator tracks cost, the atomic op provides
// the synchronized value).
//
// A neighbour loop should not call SimLoad per neighbour: it charges
// the loads with SimLoadGather over the neighbour list, split at each
// claimed neighbour whose stores must follow its load (see DESIGN.md
// §8, "Gather accessors").
func (a *Array[T]) SimLoad(c *Ctx, i int) {
	c.acc.Elem(a.Addr(i), false)
}

// SimStore charges a simulated write of element i without touching the
// backing data — the counterpart of SimLoad for CAS-updated elements.
func (a *Array[T]) SimStore(c *Ctx, i int) {
	c.acc.Elem(a.Addr(i), true)
}

// SimLoadGather charges a simulated read of element i for each i in idx,
// in order — exactly len(idx) SimLoad calls, charged in one loop.
func (a *Array[T]) SimLoadGather(c *Ctx, idx []uint32) {
	c.acc.Gather(a.obj.base, a.elemShift, idx, true, false)
}

// SimUpdateGather charges a simulated read then write of element i for
// each i in idx, in order — exactly SimLoad(i) then SimStore(i) per
// index, the charge of an atomic read-modify-write scatter.
func (a *Array[T]) SimUpdateGather(c *Ctx, idx []uint32) {
	c.acc.Gather(a.obj.base, a.elemShift, idx, true, true)
}

// LoadSeq charges a sequential simulated read of elements [lo, hi) and
// returns the backing subslice holding their values. The charge is
// exactly equivalent to hi-lo individual Load calls (same cycles,
// counters, and cache/TLB state) but is accounted per cache line, which
// is what makes streaming kernels cheap to simulate. The returned slice
// aliases the array's backing store; callers must treat it as read-only.
func (a *Array[T]) LoadSeq(c *Ctx, lo, hi int) []T {
	if hi > lo {
		c.acc.LoadRange(a.Addr(lo), uint32(a.elemSize), hi-lo)
	}
	return a.elems[lo:hi:hi]
}

// StoreSeq charges a sequential simulated write of elements [lo, hi) and
// returns the backing subslice for the caller to fill — the bulk
// counterpart of hi-lo Store calls.
func (a *Array[T]) StoreSeq(c *Ctx, lo, hi int) []T {
	if hi > lo {
		c.acc.StoreRange(a.Addr(lo), uint32(a.elemSize), hi-lo)
	}
	return a.elems[lo:hi:hi]
}

// FillSeq stores v into every element of [lo, hi) through the simulated
// memory system (a charged, bulk variant of Fill).
func (a *Array[T]) FillSeq(c *Ctx, lo, hi int, v T) {
	dst := a.StoreSeq(c, lo, hi)
	for i := range dst {
		dst[i] = v
	}
}

// ReduceSeq folds f over elements [lo, hi) read sequentially through the
// simulated memory system, starting from init. Accumulation order is
// ascending index, so results are bit-identical to an element-at-a-time
// loop.
func (a *Array[T]) ReduceSeq(c *Ctx, lo, hi int, init float64, f func(acc float64, v T) float64) float64 {
	acc := init
	for _, v := range a.LoadSeq(c, lo, hi) {
		acc = f(acc, v)
	}
	return acc
}

// Raw returns the backing slice for un-simulated access: initialization,
// verification, and result extraction. Kernels being measured must go
// through Load/Store instead.
func (a *Array[T]) Raw() []T { return a.elems }

// Fill sets every element to v without simulation cost (initialization).
func (a *Array[T]) Fill(v T) {
	for i := range a.elems {
		a.elems[i] = v
	}
}
