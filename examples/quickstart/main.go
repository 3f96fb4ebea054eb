// Command quickstart is the minimal ATMem session from the paper's
// Listing 1: run PageRank on the pokec dataset on the simulated
// NVM-DRAM testbed, profile the first iteration, migrate the critical
// data chunks to DRAM, and compare per-iteration time before and after
// against the all-NVM baseline and the all-DRAM ideal.
package main

import (
	"fmt"
	"log"

	"atmem"
	"atmem/apps"
)

// run executes PageRank under the given placement policy; optimize
// turns on the profile -> analyze -> migrate cycle (the fixed policies
// place everything at allocation time and never migrate).
func run(policy atmem.PlacementPolicy, optimize bool) (first, second float64, rep atmem.MigrationReport, err error) {
	rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithPlacementPolicy(policy))
	if err != nil {
		return 0, 0, rep, err
	}
	kern, err := apps.New("pr")
	if err != nil {
		return 0, 0, rep, err
	}
	if err := kern.Setup(rt, "pokec"); err != nil {
		return 0, 0, rep, err
	}

	if optimize {
		rt.ProfilingStart()
	}
	it0 := kern.RunIteration(rt)
	first = it0.Seconds
	if optimize {
		n := rt.ProfilingStop()
		fmt.Printf("  profiler: %d samples at period %d\n", n, rt.SamplePeriod())
		if rep, err = rt.Optimize(); err != nil {
			return 0, 0, rep, err
		}
		fmt.Printf("  migration: %s\n", rep)
	}
	it1 := kern.RunIteration(rt)
	second = it1.Seconds
	if err := kern.Validate(); err != nil {
		return 0, 0, rep, err
	}
	return first, second, rep, nil
}

func main() {
	fmt.Println("== PageRank / pokec on the simulated NVM-DRAM testbed ==")

	fmt.Println("baseline (all data on Optane NVM):")
	_, base, _, err := run(atmem.PaperPolicy(), false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  iteration time %.6fs\n", base)

	fmt.Println("ideal (all data on DRAM):")
	_, ideal, _, err := run(atmem.AllFastPolicy(), false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  iteration time %.6fs\n", ideal)

	fmt.Println("ATMem (profile -> analyze -> migrate):")
	first, opt, rep, err := run(atmem.PaperPolicy(), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  first (profiled) iteration %.6fs, optimized iteration %.6fs\n", first, opt)

	fmt.Printf("\nATMem speedup over baseline: %.2fx with %.1f%% of data on DRAM\n",
		base/opt, 100*rep.DataRatio())
	fmt.Printf("slowdown vs all-DRAM ideal: %.1f%%\n", 100*(opt-ideal)/ideal)
}
