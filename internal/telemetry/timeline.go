package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// This file renders an event stream as a human-readable timeline — the
// backend of `atmem-report -timeline`. Spans print once, at their Begin,
// with simulated and host durations resolved from the matching End;
// instants and counters print in place. Indentation follows span
// nesting.

// timelineRow is one resolved display row.
type timelineRow struct {
	ev        *Event
	depth     int
	simDurNS  uint64
	hostDurNS int64
	span      bool
}

// resolveTimeline matches Begin/End pairs (LIFO, as the trace format
// requires) and flattens the stream into display rows.
func resolveTimeline(events []Event) []timelineRow {
	var open []int // rows of the open spans, innermost last
	var rows []timelineRow
	for i := range events {
		e := &events[i]
		switch e.Ph {
		case PhaseBegin:
			rows = append(rows, timelineRow{ev: e, depth: len(open), span: true})
			open = append(open, len(rows)-1)
		case PhaseEnd:
			if len(open) > 0 {
				r := &rows[open[len(open)-1]]
				open = open[:len(open)-1]
				r.simDurNS = e.SimNS - r.ev.SimNS
				r.hostDurNS = e.HostNS - r.ev.HostNS
				// An End may carry result args; surface them on the row.
				if len(e.Args) > 0 && len(r.ev.Args) == 0 {
					r.ev = &Event{
						Seq: r.ev.Seq, Cat: r.ev.Cat,
						Name: r.ev.Name, Ph: r.ev.Ph,
						SimNS: r.ev.SimNS, HostNS: r.ev.HostNS,
						Args: e.Args,
					}
				}
			}
		default:
			rows = append(rows, timelineRow{ev: e, depth: len(open)})
		}
	}
	return rows
}

// simSeconds formats a simulated-nanosecond quantity as seconds.
func simSeconds(ns uint64) string { return fmt.Sprintf("%.6fs", float64(ns)/1e9) }

// hostMS formats a host-nanosecond quantity as milliseconds.
func hostMS(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// WriteTimelineText renders the events as an aligned plain-text
// timeline on the simulated clock, with host durations bracketed.
func WriteTimelineText(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "== telemetry timeline (simulated clock; host durations in brackets) =="); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%14s  %14s  event\n", "sim-start", "sim-dur"); err != nil {
		return err
	}
	for _, r := range resolveTimeline(events) {
		dur := ""
		mark := "·"
		if r.span {
			dur = simSeconds(r.simDurNS)
			mark = "▶"
		} else if r.ev.Ph == PhaseCounter {
			mark = "#"
		}
		detail := flattenArgs(r.ev.Args)
		if detail != "" {
			detail = "  {" + detail + "}"
		}
		host := ""
		if r.span {
			host = fmt.Sprintf("  [%s]", hostMS(r.hostDurNS))
		}
		_, err := fmt.Fprintf(w, "%14s  %14s  %s%s %s/%s%s%s\n",
			simSeconds(r.ev.SimNS), dur,
			strings.Repeat("  ", r.depth), mark, r.ev.Cat, r.ev.Name,
			detail, host)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteTimelineMarkdown renders the events as a GitHub-flavored
// markdown timeline table.
func WriteTimelineMarkdown(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintf(w, "### Telemetry timeline (simulated clock)\n\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| sim-start | sim-dur | host-dur | event | details |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| --- | --- | --- | --- | --- |"); err != nil {
		return err
	}
	for _, r := range resolveTimeline(events) {
		dur, host := "", ""
		if r.span {
			dur = simSeconds(r.simDurNS)
			host = hostMS(r.hostDurNS)
		}
		name := strings.Repeat("&nbsp;&nbsp;", r.depth) + r.ev.Cat + "/" + r.ev.Name
		detail := strings.ReplaceAll(flattenArgs(r.ev.Args), "|", "\\|")
		_, err := fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
			simSeconds(r.ev.SimNS), dur, host, name, detail)
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
