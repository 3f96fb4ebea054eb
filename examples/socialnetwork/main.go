// Command socialnetwork runs a small social-network analytics pipeline —
// a BFS reachability query followed by connected components — on the
// twitter-like dataset, and compares all four placement policies on the
// simulated NVM-DRAM testbed. It is the paper's motivating scenario:
// data-driven kernels with hub-skewed access, where whole-structure
// placement wastes fast memory and ATMem's chunk-level placement recovers
// most of the all-DRAM performance with a fraction of the capacity.
package main

import (
	"fmt"
	"log"

	"atmem"
	"atmem/apps"
)

type result struct {
	bfs, cc   float64
	dataRatio float64
}

// runPipeline executes the BFS+CC pipeline under the given placement
// policy; optimize turns on the profile -> analyze -> migrate cycle.
func runPipeline(policy atmem.PlacementPolicy, optimize bool) (result, error) {
	rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithPlacementPolicy(policy))
	if err != nil {
		return result{}, err
	}
	bfs, err := apps.New("bfs")
	if err != nil {
		return result{}, err
	}
	cc, err := apps.New("cc")
	if err != nil {
		return result{}, err
	}
	if err := bfs.Setup(rt, "twitter"); err != nil {
		return result{}, err
	}
	if err := cc.Setup(rt, "twitter"); err != nil {
		return result{}, err
	}

	// Profile one pass of the whole pipeline, then migrate.
	if optimize {
		rt.ProfilingStart()
	}
	bfs.RunIteration(rt)
	cc.RunIteration(rt)
	if optimize {
		rt.ProfilingStop()
		if _, err := rt.Optimize(); err != nil {
			return result{}, err
		}
	}
	// Warm, then measure.
	bfs.RunIteration(rt)
	cc.RunIteration(rt)
	r := result{dataRatio: rt.FastDataRatio()}
	r.bfs = bfs.RunIteration(rt).Seconds
	r.cc = cc.RunIteration(rt).Seconds
	if err := bfs.Validate(); err != nil {
		return r, fmt.Errorf("bfs: %w", err)
	}
	if err := cc.Validate(); err != nil {
		return r, fmt.Errorf("cc: %w", err)
	}
	return r, nil
}

func main() {
	fmt.Println("== social-network analytics (BFS + CC) on twitter, NVM-DRAM testbed ==")
	fmt.Printf("%-12s %-12s %-12s %-10s\n", "policy", "bfs(s)", "cc(s)", "fast-data")
	arms := []struct {
		name     string
		policy   atmem.PlacementPolicy
		optimize bool
	}{
		{"baseline", atmem.PaperPolicy(), false},
		{"all-fast", atmem.AllFastPolicy(), false},
		{"prefer-fast", atmem.PreferFastPolicy(), false},
		{"paper", atmem.PaperPolicy(), true},
	}
	var baseline result
	for i, arm := range arms {
		r, err := runPipeline(arm.policy, arm.optimize)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseline = r
		}
		fmt.Printf("%-12s %-12.6f %-12.6f %.1f%%\n", arm.name, r.bfs, r.cc, 100*r.dataRatio)
		if arm.optimize {
			fmt.Printf("\nATMem speedup over all-NVM baseline: BFS %.2fx, CC %.2fx with %.1f%% data on DRAM\n",
				baseline.bfs/r.bfs, baseline.cc/r.cc, 100*r.dataRatio)
		}
	}
}
