package atmem

// This file wires the telemetry recorder (internal/telemetry) into the
// runtime: adapters for the analyzer stage observer and the migration
// engine event sink, the chunk-heat instants, and the trace writers the
// harness and CLIs use. The phase, placement and epoch boundaries and
// the transition drain that feed the trace are in observe.go. All hooks
// are nil-safe — with Options.Recorder unset each one costs one pointer
// test, and the simulated-access hot path carries no instrumentation.

import (
	"fmt"
	"io"

	"atmem/internal/core"
	"atmem/internal/migrate"
	"atmem/internal/telemetry"
)

// Telemetry returns the recorder attached via Options.Recorder (nil when
// telemetry is off).
func (r *Runtime) Telemetry() *telemetry.Recorder { return r.rec }

// stageObserver adapts the recorder to the analyzer's stage hooks; it
// returns nil (no observation) when telemetry is off.
func (r *Runtime) stageObserver() core.StageObserver {
	if !r.rec.Enabled() {
		return nil
	}
	return stageRecorder{r.rec}
}

// stageRecorder records each analyzer stage as a span, with the stage's
// decision summary on the closing edge.
type stageRecorder struct{ rec *telemetry.Recorder }

func (s stageRecorder) StageBegin(stage string) {
	s.rec.Begin("analyze", stage, nil)
}

func (s stageRecorder) StageEnd(stage string, summary map[string]any) {
	s.rec.End("analyze", stage, telemetry.Args(summary))
}

// emitMigrationEvent places one engine event on the simulated clock: the
// engine models its own elapsed seconds within the Optimize window, so
// the event lands at the window's start plus that offset.
func (r *Runtime) emitMigrationEvent(startNS uint64, ev migrate.Event) {
	args := telemetry.Args{
		"base":   ev.Region.Base,
		"bytes":  ev.Region.Size,
		"target": ev.Target.String(),
	}
	if ev.Attempt > 0 {
		args["attempt"] = ev.Attempt
	}
	if ev.StagingBytes > 0 {
		args["staging_bytes"] = ev.StagingBytes
	}
	if ev.Err != nil {
		args["error"] = ev.Err.Error()
	}
	r.rec.InstantAt(startNS+uint64(ev.Seconds*1e9),
		"migrate", "region-"+string(ev.Kind), args)
}

// emitChunkHeat records one instant per object with its accumulated
// sample totals — the trace-side companion of WriteChunkHeat.
func (r *Runtime) emitChunkHeat() {
	if !r.rec.Enabled() {
		return
	}
	for _, do := range r.reg.Objects() {
		reads, writes := do.ReadSamples(), do.WriteSamples()
		var rsum, wsum uint64
		hot := 0
		for j := range reads {
			rsum += reads[j]
			wsum += writes[j]
			if reads[j]+writes[j] > 0 {
				hot++
			}
		}
		r.rec.Instant("profile", "heat", telemetry.Args{
			"object":        do.Name,
			"chunks":        do.NumChunks,
			"hot_chunks":    hot,
			"read_samples":  rsum,
			"write_samples": wsum,
		})
	}
}

// WriteTrace writes the recorded events as Perfetto-loadable Chrome
// trace-event JSON (see telemetry.WriteChromeTrace). Transitions not yet
// in the trace (say, an Alloc-time fault) are drained into it first.
func (r *Runtime) WriteTrace(w io.Writer) error {
	r.drainTransitions()
	return telemetry.WriteChromeTrace(w, r.rec.Events())
}

// WriteTraceCSV writes the recorded events as a flat CSV timeline with
// both clocks in explicit columns.
func (r *Runtime) WriteTraceCSV(w io.Writer) error {
	r.drainTransitions()
	return telemetry.WriteCSV(w, r.rec.Events())
}

// WriteChunkHeat dumps every registered object's per-chunk read/write
// sample counters as CSV — the chunk-granularity heat map the analyzer
// ranked, for offline inspection next to the trace.
func (r *Runtime) WriteChunkHeat(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "object,chunk,base,bytes,read_samples,write_samples"); err != nil {
		return err
	}
	for _, do := range r.reg.Objects() {
		reads, writes := do.ReadSamples(), do.WriteSamples()
		for j := 0; j < do.NumChunks; j++ {
			lo, _ := do.ChunkRange(j)
			if _, err := fmt.Fprintf(w, "%s,%d,%#x,%d,%d,%d\n",
				do.Name, j, lo, do.ChunkBytes(j), reads[j], writes[j]); err != nil {
				return err
			}
		}
	}
	return nil
}
