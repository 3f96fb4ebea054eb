package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders recorded events into interchange formats:
//
//   - Chrome trace-event JSON ("JSON Array Format" with metadata), which
//     Perfetto and chrome://tracing load directly. The time axis (ts) is
//     the SIMULATED clock in microseconds; every event carries its host
//     stamp in args["host_us"], so both clocks survive the round trip.
//   - a flat CSV timeline with both clocks in explicit columns.
//
// Output is deterministic: events are pre-sorted by Recorder.Events and
// args serialize in sorted key order, so identical runs produce
// byte-identical files (the golden tests rely on this).

// chromeEvent is one trace-event in the Chrome/Perfetto JSON schema.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// tracePID and traceTID name the trace's one process and its one
// thread row, the runtime's control plane.
const (
	tracePID = 1
	traceTID = 0
)

// hostArgKey carries the host-clock stamp through the Chrome format,
// whose ts axis holds the simulated clock.
const hostArgKey = "host_us"

// WriteChromeTrace renders events as Perfetto-loadable trace JSON. The
// ts axis is the simulated clock in microseconds.
func WriteChromeTrace(w io.Writer, events []Event) error {
	ct := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"clock": "simulated (ts) + host (args.host_us)"},
		TraceEvents:     make([]chromeEvent, 0, len(events)+2),
	}
	ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "atmem-sim"},
	}, chromeEvent{
		Name: "thread_name", Ph: "M", PID: tracePID, TID: traceTID,
		Args: map[string]any{"name": "control"},
	})
	for i := range events {
		e := &events[i]
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   string(rune(e.Ph)),
			TS:   float64(e.SimNS) / 1e3,
			PID:  tracePID,
			TID:  traceTID,
		}
		if e.Ph == PhaseInstant {
			ce.S = "t" // thread-scoped instant
		}
		ce.Args = make(map[string]any, len(e.Args)+1)
		for k, v := range e.Args {
			ce.Args[k] = v
		}
		ce.Args[hostArgKey] = float64(e.HostNS) / 1e3
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}

// ReadChromeTrace parses a trace written by WriteChromeTrace back into
// events (metadata records are dropped). Seq is assigned from file
// order.
func ReadChromeTrace(rd io.Reader) ([]Event, error) {
	var ct chromeTrace
	if err := json.NewDecoder(rd).Decode(&ct); err != nil {
		return nil, fmt.Errorf("telemetry: parse trace: %w", err)
	}
	var out []Event
	for i := range ct.TraceEvents {
		ce := &ct.TraceEvents[i]
		if ce.Ph == "" || ce.Ph == "M" {
			continue
		}
		e := Event{
			Seq:   uint64(len(out) + 1),
			Cat:   ce.Cat,
			Name:  ce.Name,
			Ph:    ce.Ph[0],
			SimNS: uint64(ce.TS * 1e3),
		}
		if len(ce.Args) > 0 {
			e.Args = make(Args, len(ce.Args))
			for k, v := range ce.Args {
				if k == hostArgKey {
					if us, ok := v.(float64); ok {
						e.HostNS = int64(us * 1e3)
					}
					continue
				}
				e.Args[k] = v
			}
			if len(e.Args) == 0 {
				e.Args = nil
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// csvHeader is the column set of the CSV timeline; tid is always the
// control plane's traceTID.
const csvHeader = "seq,tid,ph,cat,name,sim_us,host_us,args"

// WriteCSV renders events as a flat CSV timeline with both clocks as
// explicit columns. Args flatten to "k=v;k=v" with sorted keys; cells
// never contain commas (offending characters are replaced), so no
// quoting is needed.
func WriteCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for i := range events {
		e := &events[i]
		_, err := fmt.Fprintf(w, "%d,%d,%c,%s,%s,%s,%s,%s\n",
			i+1, traceTID, e.Ph, csvSafe(e.Cat), csvSafe(e.Name),
			formatUS(float64(e.SimNS)/1e3), formatUS(float64(e.HostNS)/1e3),
			flattenArgs(e.Args))
		if err != nil {
			return err
		}
	}
	return nil
}

// formatUS prints a microsecond stamp with fixed sub-microsecond
// precision (stable across value magnitudes, unlike %g).
func formatUS(us float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", us), "0"), ".")
}

// flattenArgs renders args as "k=v;k=v" in sorted key order.
func flattenArgs(a Args) string {
	if len(a) == 0 {
		return ""
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(csvSafe(k))
		b.WriteByte('=')
		b.WriteString(csvSafe(formatArg(a[k])))
	}
	return b.String()
}

// formatArg prints one arg value deterministically.
func formatArg(v any) string {
	switch x := v.(type) {
	case float64:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", x), "0"), ".")
	case float32:
		return formatArg(float64(x))
	default:
		return fmt.Sprintf("%v", v)
	}
}

// csvSafe keeps cells free of CSV metacharacters.
func csvSafe(s string) string {
	s = strings.ReplaceAll(s, ",", ";")
	s = strings.ReplaceAll(s, "\n", " ")
	s = strings.ReplaceAll(s, "\"", "'")
	return s
}
