// Command spmv demonstrates the generalization of §9: ATMem is not
// graph-specific — a sparse matrix-vector kernel (power-method steps over
// the rmat27 matrix) has the same skewed column-access pattern, and the
// same profile → analyze → migrate pipeline recovers most of the
// all-DRAM performance.
package main

import (
	"fmt"
	"log"

	"atmem"
	"atmem/apps"
)

// run executes the power iterations under the given placement policy;
// optimize turns on the profile -> analyze -> migrate cycle.
func run(policy atmem.PlacementPolicy, optimize bool, iters int) (perIter float64, rep atmem.MigrationReport, err error) {
	rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithPlacementPolicy(policy))
	if err != nil {
		return 0, rep, err
	}
	k := &apps.SpMV{}
	if err := k.Setup(rt, "rmat27"); err != nil {
		return 0, rep, err
	}
	if optimize {
		rt.ProfilingStart()
	}
	k.RunIteration(rt)
	if optimize {
		rt.ProfilingStop()
		if rep, err = rt.Optimize(); err != nil {
			return 0, rep, err
		}
	}
	k.RunIteration(rt) // warm
	var total float64
	for i := 0; i < iters; i++ {
		total += k.RunIteration(rt).Seconds
	}
	if err := k.Validate(); err != nil {
		return 0, rep, err
	}
	return total / float64(iters), rep, nil
}

func main() {
	const iters = 4
	fmt.Println("== SpMV power iterations on the rmat27 matrix, NVM-DRAM testbed ==")
	base, _, err := run(atmem.PaperPolicy(), false, iters)
	if err != nil {
		log.Fatal(err)
	}
	ideal, _, err := run(atmem.AllFastPolicy(), false, iters)
	if err != nil {
		log.Fatal(err)
	}
	at, rep, err := run(atmem.PaperPolicy(), true, iters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all-NVM baseline: %.6fs/iter\n", base)
	fmt.Printf("all-DRAM ideal:   %.6fs/iter\n", ideal)
	fmt.Printf("ATMem:            %.6fs/iter (%.1f%% data on DRAM, %s migration)\n",
		at, 100*rep.DataRatio(), rep.Engine)
	fmt.Printf("\nspeedup over baseline %.2fx; %.0f%% of the NVM->DRAM gap recovered\n",
		base/at, 100*(base-at)/(base-ideal))
}
