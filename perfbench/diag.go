package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// diagnostics describe the host a run measured on. They are reported
// beside the metrics but never gate: a run taken during a steal burst
// can be told apart by its StealShare.
type diagnostics struct {
	StealShare float64 `json:"steal_share"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
}

type diagProbe struct{ steal0, total0 uint64 }

func startDiagnostics() diagProbe {
	s, t := cpuTicks()
	return diagProbe{s, t}
}

// finish returns the diagnostics of the run since the probe started.
func (d diagProbe) finish() diagnostics {
	s, t := cpuTicks()
	out := diagnostics{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     os.Getenv("PERFBENCH_GIT_SHA"),
		PeakRSSMiB: peakRSSMiB(),
	}
	if out.GitSHA == "" {
		out.GitSHA = "unknown"
	}
	if t > d.total0 {
		out.StealShare = float64(s-d.steal0) / float64(t-d.total0)
	}
	return out
}

// cpuTicks reads the host's cumulative steal and total CPU ticks from
// the first line of /proc/stat (zeros where it is unavailable).
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB is the process's peak resident set (VmHWM), 0 where
// /proc/self/status is unavailable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
