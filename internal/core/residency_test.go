package core

import "testing"

// residencyObj hand-builds a DataObject with a fixed chunk size, outside
// the registry (Advance only needs the geometry and the cold counters).
func residencyObj(base, size, chunkSize uint64) *DataObject {
	n := int((size + chunkSize - 1) / chunkSize)
	return &DataObject{
		Name:      "t",
		Base:      base,
		Size:      size,
		ChunkSize: chunkSize,
		NumChunks: n,
		cold:      make([]int, n),
	}
}

// planFor hand-builds a single-object plan selecting the given chunk
// ranges, with per-chunk priorities pr (len NumChunks; nil = all zero).
func planFor(o *DataObject, pr []float64, sel ...[2]int) *Plan {
	var ranges []Range
	for _, s := range sel {
		lo, _ := o.ChunkRange(s[0])
		_, hi := o.ChunkRange(s[1])
		ranges = append(ranges, Range{Base: lo, Size: hi - lo})
	}
	return planRanges(o, pr, ranges...)
}

// planRanges hand-builds a single-object plan selecting byte ranges.
func planRanges(o *DataObject, pr []float64, ranges ...Range) *Plan {
	if pr == nil {
		pr = make([]float64, o.NumChunks)
	}
	return &Plan{Objects: []ObjectPlan{{Object: o, Local: LocalSelection{PR: pr}, Ranges: ranges}}}
}

// fakeTier is a byte-granular stand-in for the page table: fast[a]
// reports whether address a is on the fast tier.
type fakeTier struct{ fast []bool }

func newFakeTier(size uint64) *fakeTier { return &fakeTier{fast: make([]bool, size)} }

func (ft *fakeTier) set(base, size uint64, fast bool) {
	for a := base; a < base+size; a++ {
		ft.fast[a] = fast
	}
}

// bytes is the fast callback Advance reads.
func (ft *fakeTier) bytes(base, size uint64) uint64 {
	var n uint64
	for a := base; a < base+size; a++ {
		if ft.fast[a] {
			n++
		}
	}
	return n
}

// commit applies a delta the way a fully successful migration does:
// every range of both directions moves.
func (ft *fakeTier) commit(d Delta) {
	for _, rg := range d.Demotions {
		ft.set(rg.Base, rg.Size, false)
	}
	for _, rg := range d.Promotions {
		ft.set(rg.Base, rg.Size, true)
	}
}

func TestAdvancePromotesThenConverges(t *testing.T) {
	o := residencyObj(0x1000, 8<<10, 1<<10) // 8 chunks of 1 KiB
	ft := newFakeTier(0x1000 + 8<<10)
	plan := planFor(o, nil, [2]int{2, 4})

	d, cands := Advance(plan, 2, ft.bytes)
	if len(d.Promotions) != 1 || len(d.Demotions) != 0 || len(cands) != 0 {
		t.Fatalf("first epoch: delta %+v cands %v", d, cands)
	}
	if p := d.Promotions[0]; p.Base != 0x1000+2<<10 || p.Size != 3<<10 {
		t.Fatalf("promotion range [%#x,+%d)", p.Base, p.Size)
	}
	if d.PromoteBytes != 3<<10 {
		t.Fatalf("PromoteBytes = %d, want %d", d.PromoteBytes, 3<<10)
	}
	ft.commit(d)

	// Same plan again: the delta is empty — nothing re-migrates.
	d, cands = Advance(plan, 2, ft.bytes)
	if !d.Empty() || len(cands) != 0 || d.PromoteBytes != 0 {
		t.Fatalf("steady state: delta %+v cands %v", d, cands)
	}
}

func TestAdvanceHysteresisDemotion(t *testing.T) {
	o := residencyObj(0, 8<<10, 1<<10)
	ft := newFakeTier(8 << 10)
	d, _ := Advance(planFor(o, nil, [2]int{2, 4}), 2, ft.bytes)
	ft.commit(d)

	// Hot set shifts to chunks 5–6. Epoch 1 after the shift: chunks 2–4
	// are cold for one epoch — candidates, not yet demotions.
	shifted := planFor(o, nil, [2]int{5, 6})
	d, cands := Advance(shifted, 2, ft.bytes)
	if len(d.Promotions) != 1 || d.Promotions[0].Base != 5<<10 || d.Promotions[0].Size != 2<<10 {
		t.Fatalf("shift promotions %+v", d.Promotions)
	}
	if len(d.Demotions) != 0 {
		t.Fatalf("premature demotions %+v", d.Demotions)
	}
	if len(cands) != 3 {
		t.Fatalf("candidates %v, want chunks 2,3,4", cands)
	}
	if got := o.cold[3]; got != 1 {
		t.Fatalf("cold(3) = %d, want 1", got)
	}
	ft.commit(d)

	// Epoch 2: the hysteresis window expires; chunks 2–4 demote as one
	// merged range and stop being candidates.
	d, cands = Advance(shifted, 2, ft.bytes)
	if len(d.Promotions) != 0 || len(cands) != 0 {
		t.Fatalf("epoch 2 delta %+v cands %v", d, cands)
	}
	if len(d.Demotions) != 1 || d.Demotions[0].Base != 2<<10 || d.Demotions[0].Size != 3<<10 {
		t.Fatalf("demotions %+v", d.Demotions)
	}
	if d.DemoteBytes != 3<<10 {
		t.Fatalf("DemoteBytes = %d", d.DemoteBytes)
	}
	ft.commit(d)
	if got := ft.bytes(0, o.Size); got != 2<<10 {
		t.Fatalf("fast bytes = %d, want %d", got, 2<<10)
	}

	// Epoch 3: converged again, and the demoted chunks' counters reset.
	if d, cands = Advance(shifted, 2, ft.bytes); !d.Empty() || len(cands) != 0 {
		t.Fatalf("post-demotion delta %+v cands %v", d, cands)
	}
	if got := o.cold[3]; got != 0 {
		t.Fatalf("cold(3) after demotion = %d, want 0", got)
	}
}

func TestAdvanceReselectionResetsColdCounter(t *testing.T) {
	o := residencyObj(0, 4<<10, 1<<10)
	ft := newFakeTier(4 << 10)
	d, _ := Advance(planFor(o, nil, [2]int{0, 1}), 3, ft.bytes)
	ft.commit(d)

	cold := planFor(o, nil, [2]int{2, 3})
	d, _ = Advance(cold, 3, ft.bytes)
	ft.commit(d)
	d, _ = Advance(cold, 3, ft.bytes)
	ft.commit(d)
	if got := o.cold[0]; got != 2 {
		t.Fatalf("cold(0) = %d, want 2", got)
	}

	// Chunks 0–1 get hot again one epoch before expiry: no demotion, and
	// the counter restarts from zero if they go cold later.
	d, _ = Advance(planFor(o, nil, [2]int{0, 3}), 3, ft.bytes)
	if len(d.Demotions) != 0 {
		t.Fatalf("unexpected demotions %+v", d.Demotions)
	}
	if got := o.cold[0]; got != 0 {
		t.Fatalf("cold(0) after reselection = %d, want 0", got)
	}
}

func TestAdvanceCandidatesColdestFirst(t *testing.T) {
	o := residencyObj(0, 4<<10, 1<<10)
	ft := newFakeTier(4 << 10)
	pr := []float64{3, 1, 2, 0}
	d, _ := Advance(planFor(o, pr, [2]int{0, 3}), 2, ft.bytes)
	ft.commit(d)

	// Everything fast, nothing selected: one cold epoch in, all four
	// chunks are candidates ordered by ascending priority (3,1,2,0 →
	// chunks 3,1,2,0), each freeing its whole chunk.
	_, cands := Advance(planFor(o, pr), 2, ft.bytes)
	if len(cands) != 4 {
		t.Fatalf("candidates %v", cands)
	}
	wantOrder := []uint64{3 << 10, 1 << 10, 2 << 10, 0}
	for i, want := range wantOrder {
		if cands[i].Range.Base != want || cands[i].FastBytes != 1<<10 {
			t.Errorf("candidate %d at %#x freeing %d, want %#x freeing %d",
				i, cands[i].Range.Base, cands[i].FastBytes, want, 1<<10)
		}
	}

	// Equal priorities tie-break by address.
	o2 := residencyObj(0, 4<<10, 1<<10)
	flat := []float64{1, 1, 1, 1}
	_, cands = Advance(planFor(o2, flat), 2, ft.bytes)
	if len(cands) != 4 {
		t.Fatalf("flat candidates %v", cands)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Range.Base >= cands[i].Range.Base {
			t.Fatalf("tie-break out of address order: %v", cands)
		}
	}
}

// TestAdvancePromotesPartialTailChunk pins the budget-clipped tail: a
// planned range ending inside a chunk is promoted up to its end, and a
// short last chunk is promoted up to the object's end.
func TestAdvancePromotesPartialTailChunk(t *testing.T) {
	// 3 chunks of 1 KiB plus a short 512 B tail chunk.
	o := residencyObj(0, 3<<10|512, 1<<10)
	ft := newFakeTier(4 << 10)
	clipped := planRanges(o, nil, Range{Base: 0, Size: 1<<10 | 512})
	d, _ := Advance(clipped, 2, ft.bytes)
	if len(d.Promotions) != 1 || d.Promotions[0] != (Range{Base: 0, Size: 1<<10 | 512}) {
		t.Fatalf("clipped promotions %+v", d.Promotions)
	}
	if d.PromoteBytes != 1<<10|512 {
		t.Fatalf("PromoteBytes = %d, want %d", d.PromoteBytes, 1<<10|512)
	}
	ft.commit(d)
	if d, _ = Advance(clipped, 2, ft.bytes); !d.Empty() {
		t.Fatalf("clipped tail re-promoted: %+v", d)
	}

	// Selecting the whole object schedules chunk 1 (half fast) through
	// the short last chunk as one merged range, ending at the object's
	// end, and counts only the 2 KiB still slow.
	d, _ = Advance(planFor(o, nil, [2]int{0, 3}), 2, ft.bytes)
	want := Range{Base: 1 << 10, Size: 2<<10 | 512}
	if len(d.Promotions) != 1 || d.Promotions[0].Base != want.Base || d.Promotions[0].Size != want.Size {
		t.Fatalf("remainder promotions %+v, want %+v", d.Promotions, want)
	}
	if d.PromoteBytes != 2<<10 {
		t.Fatalf("PromoteBytes = %d, want %d", d.PromoteBytes, 2<<10)
	}
}

// TestAdvanceAgesUnmigratedFastBytes covers fast bytes no migration put
// there (a fast allocation): they age and demote like migrated ones,
// and DemoteBytes counts only the fast part of the chunk.
func TestAdvanceAgesUnmigratedFastBytes(t *testing.T) {
	o := residencyObj(0, 4<<10, 1<<10)
	ft := newFakeTier(4 << 10)
	ft.set(2<<10, 512, true)

	d, cands := Advance(planFor(o, nil), 2, ft.bytes)
	if !d.Empty() || len(cands) != 1 || cands[0].Range.Base != 2<<10 || cands[0].FastBytes != 512 {
		t.Fatalf("epoch 1: delta %+v cands %+v", d, cands)
	}
	d, cands = Advance(planFor(o, nil), 2, ft.bytes)
	if len(cands) != 0 || len(d.Demotions) != 1 || d.Demotions[0].Base != 2<<10 || d.Demotions[0].Size != 1<<10 {
		t.Fatalf("epoch 2: delta %+v cands %+v", d, cands)
	}
	if d.DemoteBytes != 512 {
		t.Fatalf("DemoteBytes = %d, want 512", d.DemoteBytes)
	}
}

// TestAdvancePartlyFastChunkCountsMissingBytes covers a selected chunk
// that is already partly fast: the whole chunk is scheduled (the engine
// moves only the slow pages) but PromoteBytes counts only the missing
// bytes.
func TestAdvancePartlyFastChunkCountsMissingBytes(t *testing.T) {
	o := residencyObj(0, 4<<10, 1<<10)
	ft := newFakeTier(4 << 10)
	ft.set(1<<10, 512, true)

	d, _ := Advance(planFor(o, nil, [2]int{0, 1}), 2, ft.bytes)
	if len(d.Promotions) != 1 || d.Promotions[0].Base != 0 || d.Promotions[0].Size != 2<<10 {
		t.Fatalf("promotions %+v", d.Promotions)
	}
	if want := uint64(2<<10 - 512); d.PromoteBytes != want {
		t.Fatalf("PromoteBytes = %d, want %d", d.PromoteBytes, want)
	}
}

// TestDropForgetsObjectState checks that freeing an object drops its
// hysteresis state: the counters live on the DataObject, so an object
// re-registered at the freed address starts cold and is promoted on its
// own merit.
func TestDropForgetsObjectState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinChunkBytes = 1 << 10
	reg := NewRegistry(cfg)
	o, err := reg.Register("old", 0x4000, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	ft := newFakeTier(0x4000 + 2<<10)
	d, _ := Advance(planFor(o, nil, [2]int{0, 1}), 3, ft.bytes)
	ft.commit(d)
	if _, cands := Advance(planFor(o, nil), 3, ft.bytes); len(cands) != 2 || o.cold[0] != 1 {
		t.Fatalf("setup: cands %v cold %v", cands, o.cold)
	}

	// Free: unregister and unmap (the page table forgets the range).
	if err := reg.Unregister(o.Base); err != nil {
		t.Fatal(err)
	}
	ft.set(o.Base, o.Size, false)
	next, err := reg.Register("next", 0x4000, 2<<10)
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range next.cold {
		if c != 0 {
			t.Fatalf("reallocated chunk %d inherited cold counter %d", j, c)
		}
	}
	d, _ = Advance(planFor(next, nil, [2]int{0, 1}), 3, ft.bytes)
	if d.PromoteBytes != 2<<10 {
		t.Fatalf("fresh object promoted %d bytes, want %d", d.PromoteBytes, 2<<10)
	}
}
