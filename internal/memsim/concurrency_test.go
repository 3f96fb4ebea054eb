package memsim

import (
	"sync"
	"testing"
)

// These tests exercise what System still shares across goroutines: the
// mutex-serialized mutators against the lock-free readers (atomic
// capacity ledgers and page-table words). Run them with -race.

func TestLedgersStayConsistentUnderConcurrency(t *testing.T) {
	s := NewSystem(NVMDRAMParams())
	if _, err := s.Alloc(8*SmallPage, TierSlow); err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Reserve(SmallPage, TierFast); err == nil {
					s.Unreserve(SmallPage, TierFast)
				}
				// Lock-free readers race the mutators.
				_ = s.Used(TierFast)
				_ = s.Reserved(TierFast)
				_ = s.FreeCapacity(TierFast)
				_, _ = s.TierUsage(TierSlow)
			}
		}()
	}
	wg.Wait()
	for tr := Tier(0); tr < NumTiers; tr++ {
		if res := s.Reserved(tr); res != 0 {
			t.Errorf("tier %s: %d bytes still reserved after balanced reserve/unreserve", tr, res)
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestConcurrentRetierAndAccess(t *testing.T) {
	s := NewSystem(NVMDRAMParams())
	const pages = 64
	base, err := s.Alloc(pages*SmallPage, TierSlow)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := s.NewAccessor()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a.Load(base+uint64(i%pages)*SmallPage, 8)
			}
		}()
	}
	// Bounce the region between tiers while the readers hammer it; every
	// translation must come back a committed mapping (each page-table
	// word is one atomic store, which -race plus CheckConsistency
	// verifies).
	for i := 0; i < 50; i++ {
		tier := TierFast
		if i%2 == 1 {
			tier = TierSlow
		}
		if err := s.Retier(base, pages*SmallPage, tier); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.CheckConsistency(); err != nil {
		t.Error(err)
	}
}
