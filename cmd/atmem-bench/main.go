// Command atmem-bench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	atmem-bench [-format text|csv|md|json] [-v] <experiment>...
//	atmem-bench -list
//	atmem-bench all
//
// Experiments share a memoized run cache within one invocation, so
// "atmem-bench all" executes each (testbed, app, dataset, policy)
// combination once even though several artifacts consume it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"atmem/internal/faultinject"
	"atmem/internal/harness"
)

func main() {
	format := flag.String("format", "text", "output format: text, csv, md, json")
	verbose := flag.Bool("v", false, "print each underlying run")
	list := flag.Bool("list", false, "list experiments and exit")
	traceDir := flag.String("trace", "", "record telemetry and write per-run trace artifacts into this directory")
	async := flag.Bool("async", false, "drive every ATMem-policy run through overlapped background placement (migration concurrent with kernels)")
	faults := flag.String("faults", "", "arm a fault-injection schedule on every run (DSL, e.g. 'retier:nth=3;reserve:p=0.01,seed=7,max=5')")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (taken after the runs) to this file")
	debugAddr := flag.String("debug-addr", "", "serve live /metrics, /epochz, /healthz, and pprof on this address during the adaptive scenarios (e.g. 127.0.0.1:9798)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: atmem-bench [-format text|csv|md|json] [-v] <experiment>...|all\n\nexperiments ('all' runs the paper set; extensions run by id):\n")
		for _, e := range harness.AllExperiments() {
			fmt.Fprintf(os.Stderr, "  %-9s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range harness.AllExperiments() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
		return
	}
	ids := flag.Args()
	if len(ids) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var exps []harness.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = harness.Experiments()
	} else {
		for _, id := range ids {
			e, err := harness.ExperimentByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	var sched *faultinject.Schedule
	if *faults != "" {
		s, err := faultinject.ParseSchedule(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmem-bench: -faults: %v\n", err)
			os.Exit(2)
		}
		sched = &s
	}

	// runAll lives in its own function so the profile writers flush on
	// every exit path, including experiment failures.
	os.Exit(runAll(exps, *format, *verbose, *traceDir, *async, sched, *cpuprofile, *memprofile, *debugAddr))
}

func runAll(exps []harness.Experiment, format string, verbose bool, traceDir string, async bool, faults *faultinject.Schedule, cpuprofile, memprofile, debugAddr string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmem-bench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "atmem-bench: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "atmem-bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "atmem-bench: memprofile: %v\n", err)
			}
		}()
	}

	suite := harness.NewSuite()
	suite.Verbose = verbose
	suite.TraceDir = traceDir
	suite.Async = async
	suite.DebugAddr = debugAddr
	if faults != nil {
		suite.Faults = faults
		// The canonical String() form keys the memoized runs, so two
		// spellings of the same schedule share cache entries.
		suite.FaultLabel = faults.String()
	}
	for _, e := range exps {
		reports, err := e.Run(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atmem-bench: %s: %v\n", e.ID, err)
			return 1
		}
		for _, rep := range reports {
			var err error
			switch format {
			case "text":
				err = rep.WriteText(os.Stdout)
				fmt.Println()
			case "csv":
				err = rep.WriteCSV(os.Stdout)
			case "md":
				err = rep.WriteMarkdown(os.Stdout)
			case "json":
				err = rep.WriteJSON(os.Stdout)
			default:
				fmt.Fprintf(os.Stderr, "atmem-bench: unknown format %q\n", format)
				return 2
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "atmem-bench: %v\n", err)
				return 1
			}
		}
	}
	return 0
}
