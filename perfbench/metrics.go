package main

import (
	"sort"
	"time"
)

const mib = 1 << 20

// endToEnd returns the end-to-end metrics. Host times are process CPU
// times (cpuNow), as medians over set-ups, passes or pooled steps; the
// simulated values come from the first pass (every pass repeats them
// exactly, which failures() checks).
func (r *result) endToEnd() map[string]metric {
	var steps, places, cpus []float64
	for _, p := range r.passes {
		steps = appendMS(steps, p.steps)
		places = appendMS(places, p.places)
		cpus = append(cpus, p.cpu.Seconds())
	}
	p0 := r.passes[0]
	share := 0.0
	if p0.allTouched > 0 {
		share = float64(p0.fastTouched) / float64(p0.allTouched)
	}
	return map[string]metric{
		"setup_s":           {median(seconds(r.setups)), "s"},
		"cpu_s":             {median(cpus), "s"},
		"step_cpu_p50_ms":   {quantile(steps, 0.5), "ms"},
		"step_cpu_p90_ms":   {quantile(steps, 0.9), "ms"},
		"place_cpu_p50_ms":  {quantile(places, 0.5), "ms"},
		"peak_rss_mib":      {r.diag.PeakRSSMiB, "MiB"},
		"sim_s":             {p0.phaseSeconds, "s"},
		"speedup_vs_slow":   {p0.speedup, "x"},
		"fast_access_share": {share, "ratio"},
	}
}

// layerMetrics returns the per-layer metrics of a traced run: counts
// from the first pass, host times as medians over passes or events,
// analyzer time from the traced passes' metrics registry, and each
// layer's self time from the traced passes' spans.
func (r *result) layerMetrics() map[string]metric {
	p0 := r.passes[0]
	l := &p0.lay
	var graphB, appsS, appsV, memH, records, compiles, arms, rebs, admits []float64
	var profRatios, profiled, replayed []float64
	var traced, untraced []float64
	var anCount, anNS uint64
	for _, p := range r.passes {
		graphB = append(graphB, p.lay.graphBuild.Seconds())
		appsS = append(appsS, p.lay.appsSetup.Seconds())
		appsV = append(appsV, p.lay.appsValidate.Seconds())
		memH = append(memH, p.lay.memsimHost.Seconds())
		if p.lay.recordRun > 0 {
			records = append(records, p.lay.recordRun.Seconds())
			compiles = append(compiles, ms(p.lay.compile))
		}
		if p.lay.profiledRatio > 0 {
			profRatios = append(profRatios, p.lay.profiledRatio)
		}
		arms = appendMS(arms, p.lay.arms)
		rebs = appendMS(rebs, p.lay.rebalances)
		admits = appendMS(admits, p.lay.admits)
		profiled = appendMS(profiled, p.lay.profiledBodies)
		replayed = appendMS(replayed, p.lay.replayedBodies)
		if p.tr != nil {
			traced = append(traced, p.cpu.Seconds())
			anCount += p.lay.analyzeCount
			anNS += p.lay.analyzeNS
		} else {
			untraced = append(untraced, p.cpu.Seconds())
		}
	}
	profRatio := median(profRatios)
	if len(profiled) > 0 && len(replayed) > 0 {
		profRatio = median(profiled) / median(replayed)
	}
	m := map[string]metric{
		"graph.build_s":   {median(graphB), "s"},
		"apps.setup_s":    {median(appsS), "s"},
		"apps.validate_s": {median(appsV), "s"},

		"memsim.host_s":        {median(memH), "s"},
		"memsim.ns_per_access": {ratio(median(memH)*1e9, float64(l.accesses)), "ns"},
		"memsim.accesses":      {float64(l.accesses), "count"},
		"memsim.llc_misses":    {float64(l.llcMisses), "count"},
		"memsim.tlb_misses":    {float64(l.tlbMisses), "count"},
		"memsim.fast_mib":      {float64(l.fastBytes) / mib, "MiB"},
		"memsim.slow_mib":      {float64(l.slowBytes) / mib, "MiB"},

		"pebs.samples":        {float64(l.samples), "count"},
		"pebs.profiled_ratio": {profRatio, "ratio"},
		"pebs.sim_overhead_s": {l.profSimS, "s"},

		"core.analyze_ms":      {ratio(float64(anNS)/1e6, float64(anCount)), "ms"},
		"core.selected_mib":    {ratio(float64(l.selected)/mib, float64(l.placements)), "MiB"},
		"core.fast_data_ratio": {l.fastDataRatio, "ratio"},

		"migrate.moved_mib": {float64(l.moved) / mib, "MiB"},
		"migrate.pages":     {float64(l.pages), "count"},
		"migrate.regions":   {float64(l.regions), "count"},
		"migrate.retried":   {float64(l.retried), "count"},
		"migrate.skipped":   {float64(l.skipped), "count"},
		"migrate.sim_s":     {l.migrateSimS, "s"},

		"governor.promoted_mib":        {float64(l.promoted) / mib, "MiB"},
		"governor.demoted_mib":         {float64(l.demoted) / mib, "MiB"},
		"governor.breaker_transitions": {float64(l.breakerTransitions), "count"},

		"health.scrubbed_mib": {float64(l.scrubbed) / mib, "MiB"},
		"health.scrub_sim_s":  {l.scrubSimS, "s"},

		"plan.record_s":   {median(records), "s"},
		"plan.compile_ms": {median(compiles), "ms"},
		"plan.arm_ms":     {median(arms), "ms"},
		"plan.hits":       {float64(l.hits), "count"},

		"broker.rebalance_us":  {median(rebs) * 1e3, "us"},
		"broker.admit_us":      {median(admits) * 1e3, "us"},
		"broker.grant_changes": {float64(l.grantChanges), "count"},

		"sim.total_s": {p0.simSeconds, "s"},

		"trace.overhead_ratio": {ratio(median(traced), median(untraced)) - 1, "ratio"},
	}

	// Self time per layer, averaged over the traced passes.
	self := make(map[string]float64)
	var total, n float64
	for _, p := range r.passes {
		if p.tr == nil {
			continue
		}
		s, t := p.tr.selfTimes([]int{p.root})
		for k, v := range s {
			self[k] += v
		}
		total, n = total+t, n+1
	}
	for _, layer := range layers {
		m[layer+".self_s"] = metric{ratio(self[layer], n), "s"}
	}
	m["trace.cpu_s"] = metric{ratio(total, n), "s"}
	m["trace.unattributed_ratio"] = metric{ratio(self[layerBench], total), "ratio"}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func appendMS(dst []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		dst = append(dst, ms(d))
	}
	return dst
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; 0 for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
