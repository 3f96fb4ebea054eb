package memsim

import "testing"

// pinTrace drives one fixed, seeded mixed trace through a single
// accessor: random and sequential loads and stores (element-at-a-time
// and bulk) over a 2 MiB-mapped and two 4 KiB-mapped objects, a
// mid-trace cache and TLB invalidation, and a ResetCounters between a
// warm-up and a measured half. It returns the measured half's reduced
// stats.
func pinTrace(t *testing.T, p SystemParams) (PhaseStats, float64) {
	t.Helper()
	s := NewSystem(p)
	huge, err := s.Alloc(4*MiB, TierSlow) // 2 MiB mappings
	if err != nil {
		t.Fatal(err)
	}
	fast, err := s.Alloc(1*MiB, TierFast) // 4 KiB mappings
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Alloc(512*KiB, TierSlow) // 4 KiB mappings
	if err != nil {
		t.Fatal(err)
	}
	type region struct{ base, size uint64 }
	regions := []region{{huge, 4 * MiB}, {fast, 1 * MiB}, {small, 512 * KiB}}

	a := s.NewAccessor()
	a.SetMissHook(func(addr uint64, write bool) float64 { return 17 })

	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // SplitMix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	run := func(ops int) {
		for i := 0; i < ops; i++ {
			r := next()
			reg := regions[r%3]
			write := r>>2&3 == 0
			off := (r >> 8) % (reg.size - 4096)
			switch r >> 4 & 7 {
			case 0, 1, 2: // random gather or scatter
				if write {
					a.Store(reg.base+off&^7, 8)
				} else {
					a.Load(reg.base+off&^7, 8)
				}
			case 3: // unaligned access that may straddle two lines
				a.Load(reg.base+off, 12)
			case 4: // element-at-a-time forward run
				for j := uint64(0); j < 48; j++ {
					if write {
						a.Store(reg.base+off+j*4, 4)
					} else {
						a.Load(reg.base+off+j*4, 4)
					}
				}
			case 5: // bulk forward run
				if write {
					a.StoreRange(reg.base+off, 8, 300)
				} else {
					a.LoadRange(reg.base+off, 8, 300)
				}
			case 6: // strided sweep: too sparse for stream detection
				for j := uint64(0); j < 16; j++ {
					a.Load(reg.base+(off+j*256)%reg.size, 8)
				}
			default: // re-touch a neighbourhood around two scattered lines
				l := reg.base + off&^63
				a.Load(l+64, 8)
				a.Store(l, 8)
				a.Load(reg.base+(off+64*KiB)%reg.size, 8)
				a.Load(reg.base+(off+200*KiB)%reg.size, 8)
				// In a one-set L1, l+64 is now the LRU way: this miss
				// evicts it before the stream-detection probe asks.
				a.Load(l+128, 8)
			}
		}
	}
	run(20000)
	a.ResetCounters()
	run(20000)
	a.InvalidateCacheRange(huge+1*MiB, 1*MiB+4096)
	a.InvalidateTLBRange(huge+1*MiB, 1*MiB+4096)
	a.InvalidateCacheRange(fast+128*KiB, 64*KiB)
	a.InvalidateTLBRange(fast+128*KiB, 64*KiB)
	run(20000)
	return s.ReducePhase([]*Accessor{a}), a.Cycles
}

// TestAccessorModelPinned fixes the accessor's observable model: the
// expected values were recorded from the stamp-based L1 and TLB models,
// so any drift in the L1 filter, the stream detector, the TLBs, the LLC
// or the cost model shows up here even when every fast path still
// agrees with its own reference.
func TestAccessorModelPinned(t *testing.T) {
	oneSetL1 := testParams()
	oneSetL1.L1Bytes = 4 * oneSetL1.LineBytes
	cases := []struct {
		name   string
		p      SystemParams
		want   PhaseStats
		cycles float64
	}{
		{"default", testParams(), PhaseStats{
			WallSeconds:      0.0015268223384615385,
			LatencySeconds:   0.0013931803079462132,
			BandwidthSeconds: 0.0015268223384615385,
			ReadBytes:        [NumTiers]uint64{5039552, 22291392},
			WriteBytes:       [NumTiers]uint64{1127424, 3216512},
			WritebackBytes:   [NumTiers]uint64{1303360, 8176768},
			Accesses:         1869136,
			L1Hits:           1707681,
			LLCHits:          62172,
			LLCMisses:        128657,
			PrefetchedLines:  156557,
			TLBMisses:        31265,
		}, 2.006179643442547e+07},
		{"one-set-l1", oneSetL1, PhaseStats{
			WallSeconds:      0.0015415002256410257,
			LatencySeconds:   0.001420909616446282,
			BandwidthSeconds: 0.0015415002256410257,
			ReadBytes:        [NumTiers]uint64{5037824, 22842880},
			WriteBytes:       [NumTiers]uint64{1126656, 3219840},
			WritebackBytes:   [NumTiers]uint64{1304320, 8180608},
			Accesses:         1869136,
			L1Hits:           1706612,
			LLCHits:          63053,
			LLCMisses:        132336,
			PrefetchedLines:  153066,
			TLBMisses:        31275,
		}, 2.046109847682646e+07},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, cycles := pinTrace(t, c.p)
			if got != c.want || cycles != c.cycles {
				t.Errorf("model drifted:\n got  %+v cycles %v\n want %+v cycles %v",
					got, cycles, c.want, c.cycles)
			}
		})
	}
}
