package main

import (
	"encoding/json"
	"io"
	"time"
)

// Layer names. Every span the benchmark records belongs to one of them;
// a layer's self time is the part of its spans' intervals that no child
// span covers.
const (
	layerBench   = "bench"   // the benchmark's own bookkeeping (pass root)
	layerGraph   = "graph"   // graph.RegisterDataset + Load/LoadReverse/LoadSymmetric
	layerRuntime = "runtime" // atmem.New, NewBroker, Runtime.Close
	layerApps    = "apps"    // Kernel.Setup and Kernel.Validate
	layerMemsim  = "memsim"  // Kernel.RunIteration: the simulated kernel phases
	layerPlace   = "place"   // RunEpoch / Optimize outside the kernel body
	layerPlan    = "plan"    // ArmPlan and FinishPlan
	layerBroker  = "broker"  // Admit and Rebalance
	layerCheck   = "check"   // System().CheckConsistency
)

var layers = []string{layerBench, layerGraph, layerRuntime, layerApps, layerMemsim,
	layerPlace, layerPlan, layerBroker, layerCheck}

// span is one recorded interval, in nanoseconds of process CPU time
// since the tracer's base. The benchmark runs one goroutine at a time
// outside the kernels' worker phases, so the process CPU clock is one
// timeline and spans nest as calls do.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced runs pay one nil test per boundary.
type tracer struct {
	base  time.Duration
	spans []span
}

func newTracer() *tracer { return &tracer{base: cpuNow()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := (cpuNow() - t.base).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = (cpuNow() - t.base).Nanoseconds()
}

// encode writes every span as one JSON array.
func (t *tracer) encode(w io.Writer) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// selfTimes returns each layer's self time in seconds, summed over the
// subtrees rooted at roots, and the roots' total time, which the self
// times sum to.
func (t *tracer) selfTimes(roots []int) (self map[string]float64, total float64) {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make(map[string]float64)
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id]
		d := s.End - s.Start
		for _, c := range children[id] {
			d -= t.spans[c].End - t.spans[c].Start
			walk(c)
		}
		self[s.Layer] += float64(d) / 1e9
	}
	for _, r := range roots {
		total += float64(t.spans[r].End-t.spans[r].Start) / 1e9
		walk(r)
	}
	return self, total
}
