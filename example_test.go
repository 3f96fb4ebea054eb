package atmem_test

import (
	"fmt"

	"atmem"
)

// Example reproduces the paper's Listing-1 session: allocate data
// objects through the runtime, profile the first iteration, migrate the
// critical chunks, and keep computing on the optimized placement.
func Example() {
	rt, err := atmem.New(atmem.NVMDRAM())
	if err != nil {
		panic(err)
	}

	// atmem_malloc: a hot array (reused heavily) and a cold one.
	hot, err := atmem.NewArray[uint64](rt, "hot", 32<<10)
	if err != nil {
		panic(err)
	}
	cold, err := atmem.NewArray[uint64](rt, "cold", 512<<10)
	if err != nil {
		panic(err)
	}

	work := func(c *atmem.Ctx) {
		lo, hi := c.Range(hot.Len())
		for rep := 0; rep < 8; rep++ {
			for i := lo; i < hi; i++ {
				hot.Load(c, (i*7919)%hot.Len())
			}
		}
		clo, chi := c.Range(cold.Len())
		for i := clo; i < chi; i++ {
			cold.Load(c, (i*104729)%cold.Len())
		}
	}

	// atmem_profiling_start / one profiled iteration / stop.
	rt.ProfilingStart()
	rt.RunPhase("iteration-0", work)
	rt.ProfilingStop()

	// atmem_optimize: analyze the samples, migrate hot chunks to DRAM.
	rep, err := rt.Optimize()
	if err != nil {
		panic(err)
	}
	fmt.Println("engine:", rep.Engine)
	fmt.Println("hot array fully on DRAM:", hot.Object().FastBytes() == hot.Object().Size())

	rt.RunPhase("iteration-1", work)
	// Output:
	// engine: atmem
	// hot array fully on DRAM: true
}

// ExampleRuntime_PlacementSummary shows how to inspect where each
// registered object's bytes live after optimization.
func ExampleRuntime_PlacementSummary() {
	rt, err := atmem.New(atmem.NVMDRAM(), atmem.WithPlacementPolicy(atmem.AllFastPolicy()))
	if err != nil {
		panic(err)
	}
	if _, err := atmem.NewArray[float32](rt, "weights", 1024); err != nil {
		panic(err)
	}
	for _, op := range rt.PlacementSummary() {
		fmt.Printf("%s: %d of %d bytes on fast memory\n", op.Name, op.FastBytes, op.Size)
	}
	// Output:
	// weights: 4096 of 4096 bytes on fast memory
}
