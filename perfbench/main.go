// Command perfbench is the atmem performance benchmark: four workloads
// driven through the public API only, timed from outside, with every
// simulated statistic digested so a run at a fixed seed repeats exactly.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: paper-oneshot, epoch-shift, epoch-replay or tenant-pair")
	seed := flag.Uint64("seed", 1, "graph seed")
	seconds := flag.Float64("seconds", 20, "wall-clock budget for the measured passes")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans as JSON to this file")
	flag.Parse()
	// One P: the two simulated workers of a paper-oneshot phase take
	// turns on one CPU instead of contending for the cache lines of the
	// shared host's cores, which made their step time bimodal from run
	// to run, and garbage collection is charged to the step it runs in.
	runtime.GOMAXPROCS(1)
	w, ok := findWorkload(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: -workload %q -seconds %g -trace %d\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := runWorkload(w, defaultShape, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if *trace == 1 && *spans != "" {
		if err := r.writeSpans(*spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
	}
	// A failed check is reported as "correct": false with exit status 0:
	// the run itself completed. Bad arguments and I/O errors exit non-zero.
	r.print(os.Stdout, *trace == 1)
}

// result is one benchmark run: its passes and extra set-ups.
type result struct {
	workload string
	seed     uint64
	passes   []*pass
	setups   []time.Duration
	diag     diagnostics
}

// A run times at least minSetups set-ups, and keeps adding set-ups until
// they took setupShare of the budget (at most maxSetups), so setup_s is
// a median over many set-ups even where one is only milliseconds long.
const (
	minSetups  = 5
	maxSetups  = 40
	setupShare = 0.1
)

// runWorkload runs passes until the budget would be exceeded by one more
// (at least one; a traced run alternates untraced and traced passes and
// runs at least one of each), then adds set-ups without a measured
// section (see minSetups).
func runWorkload(w workload, sh shape, seed uint64, budget time.Duration, traced bool) *result {
	r := &result{workload: w.name, seed: seed}
	probe := startDiagnostics()
	start := time.Now()
	minPasses := 1
	if traced {
		minPasses = 2
	}
	for i := 0; ; i++ {
		p := newPass(seed, traced && i%2 == 1)
		err := runPass(w, sh, p)
		r.passes = append(r.passes, p)
		r.setups = append(r.setups, p.setup)
		if err != nil {
			p.fail("%s: %v", w.name, err)
			break
		}
		elapsed := time.Since(start)
		if len(r.passes) >= minPasses && elapsed+elapsed/time.Duration(len(r.passes)) > budget {
			break
		}
	}
	var setupTime time.Duration
	for _, d := range r.setups {
		setupTime += d
	}
	for len(r.setups) < maxSetups && r.correct() &&
		(len(r.setups) < minSetups || setupTime < time.Duration(setupShare*float64(budget))) {
		p := newPass(seed, false)
		runtime.GC()
		t0 := cpuNow()
		inst, err := w.setup(p, sh)
		d := cpuNow() - t0
		r.setups = append(r.setups, d)
		setupTime += d
		if inst != nil {
			inst.close(p)
		}
		if err != nil {
			p.fail("%s setup: %v", w.name, err)
		}
		if len(p.failures) > 0 {
			r.passes[0].failures = append(r.passes[0].failures, p.failures...)
		}
	}
	r.diag = probe.finish()
	return r
}

// runPass sets the workload up, measures it and tears it down. It first
// returns the previous pass's memory to the operating system, so that
// each pass runs on freshly faulted pages: how fast the memory-bound
// simulation runs depends on where its pages land in the host's caches,
// and a run's medians then pool several placements instead of one.
func runPass(w workload, sh shape, p *pass) error {
	defer p.finish()
	debug.FreeOSMemory()
	t0 := cpuNow()
	inst, err := w.setup(p, sh)
	p.setup = cpuNow() - t0
	if inst != nil {
		defer inst.close(p)
	}
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return inst.measure(p)
}

// failures lists every failed check, including passes whose digest
// differs from the first pass's.
func (r *result) failures() []string {
	var out []string
	first := r.passes[0].sum()
	for i, p := range r.passes {
		out = append(out, p.failures...)
		if d := p.sum(); d != first {
			out = append(out, fmt.Sprintf("pass %d digest %s differs from pass 1's %s", i+1, d, first))
		}
	}
	return out
}

func (r *result) correct() bool { return len(r.failures()) == 0 }

func (r *result) attempted() int {
	n := 0
	for _, p := range r.passes {
		n += p.attempted
	}
	if n == 0 {
		n = 1 // a run that failed before its first step attempted one
	}
	return n
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and, as the last line, the
// JSON result.
func (r *result) print(f *os.File, traced bool) {
	fails := r.failures()
	var ms map[string]metric
	if traced {
		ms = r.layerMetrics()
	} else {
		ms = r.endToEnd()
	}
	fmt.Fprintf(f, "perfbench %s seed=%d passes=%d steps=%d digest=%s\n",
		r.workload, r.seed, len(r.passes), r.attempted(), r.passes[0].sum())
	for _, name := range sortedKeys(ms) {
		fmt.Fprintf(f, "  %-28s %16.6f %s\n", name, ms[name].Value, ms[name].Unit)
	}
	for _, msg := range fails {
		fmt.Fprintf(f, "  FAIL %s\n", msg)
	}
	d, _ := json.Marshal(r.diag)
	fmt.Fprintf(f, "diagnostics %s\n", d)
	failed := len(fails)
	if failed > r.attempted() {
		failed = r.attempted()
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, r.attempted(), failed, ms})
	fmt.Fprintln(f, string(out))
}

// writeSpans writes every traced pass's spans, one JSON array per line.
func (r *result) writeSpans(path string) error {
	var b strings.Builder
	for _, p := range r.passes {
		if p.tr == nil {
			continue
		}
		if err := p.tr.encode(&b); err != nil {
			return err
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
