package atmem

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"testing"

	"atmem/internal/memsim"
)

// TestScorecardReconciliation is the bit-exactness contract: every byte
// field of a governed epoch's scorecard must equal the same quantity
// read off the EpochReport's MigrationReport and PhaseResults — the
// scorecard is a derived view, never a second bookkeeping.
func TestScorecardReconciliation(t *testing.T) {
	rt, err := New(govTestbed(8<<20),
		WithGovernor(GovernorOptions{}),
		WithMetrics(NewMetricsRegistry()),
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray[uint64](rt, "a", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(a, 1)

	var reps []EpochReport
	var latest []Scorecard
	for e := 0; e < 3; e++ {
		reps = append(reps, epochOn(t, rt, fmt.Sprintf("e%d", e), a))
		latest = append(latest, *rt.LastScorecard())
	}
	cards := rt.Scorecards()
	if len(cards) != len(reps) {
		t.Fatalf("%d scorecards for %d epochs", len(cards), len(reps))
	}
	for i, sc := range cards {
		rep := reps[i]
		if sc != latest[i] {
			t.Errorf("epoch %d: LastScorecard after the epoch differs from the stored one", rep.Epoch)
		}
		if sc.Epoch != rep.Epoch {
			t.Errorf("scorecard %d: epoch %d, want %d", i, sc.Epoch, rep.Epoch)
		}
		// Migration-side fields: bit-exact against the MigrationReport.
		if sc.MovedBytes != rep.Migration.BytesMoved {
			t.Errorf("epoch %d: MovedBytes %d != BytesMoved %d", rep.Epoch, sc.MovedBytes, rep.Migration.BytesMoved)
		}
		if sc.PromotedBytes != rep.Migration.PromotedBytes {
			t.Errorf("epoch %d: PromotedBytes %d != %d", rep.Epoch, sc.PromotedBytes, rep.Migration.PromotedBytes)
		}
		if sc.DemotedBytes != rep.Migration.DemotedBytes {
			t.Errorf("epoch %d: DemotedBytes %d != %d", rep.Epoch, sc.DemotedBytes, rep.Migration.DemotedBytes)
		}
		if sc.ResidentBytes != rep.Migration.ResidentBytes {
			t.Errorf("epoch %d: ResidentBytes %d != %d", rep.Epoch, sc.ResidentBytes, rep.Migration.ResidentBytes)
		}
		if sc.MigrationSeconds != rep.Migration.Seconds {
			t.Errorf("epoch %d: MigrationSeconds %g != %g", rep.Epoch, sc.MigrationSeconds, rep.Migration.Seconds)
		}
		if sc.Breaker != rep.Migration.Breaker {
			t.Errorf("epoch %d: Breaker %q != %q", rep.Epoch, sc.Breaker, rep.Migration.Breaker)
		}
		// Phase-side fields: bit-exact against the epoch's PhaseStats.
		var fast, total uint64
		var phaseS float64
		for _, p := range rep.Phases {
			phaseS += p.Stats.WallSeconds
			for tr := memsim.Tier(0); tr < memsim.NumTiers; tr++ {
				n := p.Stats.ReadBytes[tr] + p.Stats.WriteBytes[tr] + p.Stats.WritebackBytes[tr]
				total += n
				if tr == memsim.TierFast {
					fast += n
				}
			}
		}
		if sc.FastBytesTouched != fast || sc.TotalBytesTouched != total {
			t.Errorf("epoch %d: touched %d/%d, want %d/%d", rep.Epoch,
				sc.FastBytesTouched, sc.TotalBytesTouched, fast, total)
		}
		if sc.PhaseSeconds != phaseS {
			t.Errorf("epoch %d: PhaseSeconds %g != %g", rep.Epoch, sc.PhaseSeconds, phaseS)
		}
		if total > 0 && sc.FastAccessShare != float64(fast)/float64(total) {
			t.Errorf("epoch %d: FastAccessShare %g inconsistent", rep.Epoch, sc.FastAccessShare)
		}
		if sc.MovedBytes > 0 && sc.MigrationEfficiency != float64(fast)/float64(sc.MovedBytes) {
			t.Errorf("epoch %d: MigrationEfficiency %g inconsistent", rep.Epoch, sc.MigrationEfficiency)
		}
		if sc.ProfilingOverheadSeconds <= 0 {
			t.Errorf("epoch %d: profiling overhead %g, want > 0 (samples were captured)",
				rep.Epoch, sc.ProfilingOverheadSeconds)
		}
	}
	// After migration settled the hot array fast-resident, the steady
	// -state epoch must show a dominant fast-tier access share.
	if last := cards[len(cards)-1]; last.FastAccessShare < 0.5 {
		t.Errorf("steady-state FastAccessShare %g, want > 0.5", last.FastAccessShare)
	}

	// The registry's counters must agree with the cumulative reports.
	snap := rt.Metrics().Snapshot()
	var wantMoved uint64
	for _, rep := range reps {
		wantMoved += rep.Migration.BytesMoved
	}
	if got := snap.Counters["atmem_migration_moved_bytes_total"]; got != wantMoved {
		t.Errorf("moved-bytes counter %d, want %d", got, wantMoved)
	}
	if got := snap.Counters["atmem_epochs_total"]; got != uint64(len(reps)) {
		t.Errorf("epochs counter %d, want %d", got, len(reps))
	}
	if got := snap.Counters["atmem_phases_total"]; got != uint64(len(reps)) {
		t.Errorf("phases counter %d, want %d (one phase per epoch)", got, len(reps))
	}
}

// TestScorecardAsyncAndUngoverned covers the other epoch drivers: the
// async pipeline produces a scorecard per epoch, and an ungoverned
// runtime produces none (but still records metrics).
func TestScorecardAsyncAndUngoverned(t *testing.T) {
	rt, err := New(govTestbed(8<<20),
		WithAsyncPlacement(),
		WithMetrics(NewMetricsRegistry()),
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray[uint64](rt, "a", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(a, 7)
	for e := 0; e < 3; e++ {
		name := fmt.Sprintf("e%d", e)
		if _, err := rt.RunEpochAsync(t.Context(), name, func() { scanPhase(rt, name, a) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.DrainAsync(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Scorecards()); got != 3 {
		t.Fatalf("async run produced %d scorecards, want 3", got)
	}
	// Epoch 2 overlapped epoch 1's placement: its scorecard must carry
	// that placement's byte movement.
	if sc := rt.Scorecards()[1]; sc.MovedBytes == 0 {
		t.Error("overlapped epoch's scorecard shows no movement")
	}

	urt, err := New(govTestbed(0), WithMetrics(NewMetricsRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewArray[uint64](urt, "b", 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	urt.ProfilingStart()
	scanPhase(urt, "p0", b)
	urt.ProfilingStop()
	if _, err := urt.Optimize(); err != nil {
		t.Fatal(err)
	}
	if n := len(urt.Scorecards()); n != 0 {
		t.Fatalf("ungoverned runtime produced %d scorecards", n)
	}
	snap := urt.Metrics().Snapshot()
	if snap.Counters["atmem_migration_moved_bytes_total"] == 0 {
		t.Error("ungoverned Optimize recorded no moved bytes")
	}
	if snap.Histograms["atmem_optimize_analyze_ns"].Count == 0 {
		t.Error("ungoverned Optimize recorded no analyze latency")
	}
}

// TestDebugListener drives a governed run with the debug HTTP listener
// attached and scrapes every endpoint — the in-process version of the
// CI metrics-smoke step.
func TestDebugListener(t *testing.T) {
	rt, err := New(govTestbed(8<<20),
		WithGovernor(GovernorOptions{}),
		WithDebugAddr("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	addr := rt.DebugAddr()
	if addr == "" {
		t.Fatal("DebugAddr empty with WithDebugAddr set")
	}
	if rt.Metrics() == nil {
		t.Fatal("debug listener did not imply a metrics registry")
	}
	a, err := NewArray[uint64](rt, "a", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(a, 3)
	epochOn(t, rt, "e0", a)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"atmem_phases_total 1",
		"atmem_epochs_total 1",
		`atmem_tier_read_bytes_total{tier="fast"}`,
		"atmem_scorecard_fast_access_share",
		"# TYPE atmem_phase_duration_ns histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get("/epochz")
	if code != http.StatusOK {
		t.Fatalf("/epochz: status %d", code)
	}
	var sc Scorecard
	if err := json.Unmarshal([]byte(body), &sc); err != nil {
		t.Fatalf("/epochz not valid scorecard JSON: %v\n%s", err, body)
	}
	if sc.Epoch != 1 {
		t.Errorf("/epochz epoch %d, want 1", sc.Epoch)
	}

	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: status %d body %s", code, body)
	}

	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}

	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMetricsOffIsInert pins the disabled contract at the runtime
// level: no registry, no debug listener, nil accessors everywhere.
func TestMetricsOffIsInert(t *testing.T) {
	rt, err := New(govTestbed(8<<20), WithGovernor(GovernorOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Metrics() != nil || rt.DebugAddr() != "" {
		t.Fatal("metrics attached without WithMetrics/WithDebugAddr")
	}
	a, err := NewArray[uint64](rt, "a", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	fillDeterministic(a, 9)
	epochOn(t, rt, "e0", a)
	// Scorecards are computed even with metrics off — they ride the
	// epoch boundary, not the registry.
	if len(rt.Scorecards()) != 1 {
		t.Fatalf("expected 1 scorecard with metrics off, got %d", len(rt.Scorecards()))
	}
	if rt.LastScorecard() == nil {
		t.Fatal("LastScorecard nil after a governed epoch")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close without debug listener: %v", err)
	}
}

// TestMetricFamiliesPinned pins the metric surface: the family names
// and label keys a governed, health-enabled, tenant-labelled runtime
// exposes after one epoch. Dashboards and the benchmark read the
// families by name, so a rename or a label change must show up here.
func TestMetricFamiliesPinned(t *testing.T) {
	bk := NewBroker(govTestbed(16<<20), BrokerConfig{})
	tn, err := bk.Admit(TenantSpec{Name: "a", Class: ClassBurstable, FloorBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, hot, _ := brokerTenantRuntime(t, tn, WithScrubber(), WithMetrics(NewMetricsRegistry()))
	epochOn(t, rt, "e1", hot)

	snap := rt.Metrics().Snapshot()
	var ids []string
	for id := range snap.Counters {
		ids = append(ids, id)
	}
	for id := range snap.Gauges {
		ids = append(ids, id)
	}
	for id := range snap.Histograms {
		ids = append(ids, id)
	}
	labelKey := regexp.MustCompile(`(\w+)="`)
	seen := map[string]bool{}
	var got []string
	for _, id := range ids {
		name, labels, _ := strings.Cut(id, "{")
		var keys []string
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			keys = append(keys, m[1])
		}
		slices.Sort(keys)
		if f := name + "{" + strings.Join(keys, ",") + "}"; !seen[f] {
			seen[f] = true
			got = append(got, f)
		}
	}
	slices.Sort(got)
	want := []string{
		"atmem_epoch_duration_ns{tenant}",
		"atmem_epochs_breaker_skipped_total{tenant}",
		"atmem_epochs_total{tenant}",
		"atmem_governor_breaker_state{tenant}",
		"atmem_governor_resident_bytes{tenant}",
		"atmem_health_corruptions_detected_total{tenant}",
		"atmem_health_corruptions_repaired_total{tenant}",
		"atmem_health_emergency_demotions_total{tenant}",
		"atmem_health_promotions_vetoed_total{tenant}",
		"atmem_health_quarantined_bytes{tenant}",
		"atmem_health_scrubbed_bytes_total{tenant}",
		"atmem_migration_demoted_bytes_total{tenant}",
		"atmem_migration_huge_pages_split_total{tenant}",
		"atmem_migration_moved_bytes_total{tenant}",
		"atmem_migration_pages_moved_total{tenant}",
		"atmem_migration_promoted_bytes_total{tenant}",
		"atmem_migration_regions_migrated_total{tenant}",
		"atmem_migration_regions_retried_total{tenant}",
		"atmem_migration_regions_skipped_total{tenant}",
		"atmem_migration_tlb_shootdowns_total{tenant}",
		"atmem_optimize_analyze_ns{tenant}",
		"atmem_optimize_migrate_ns{tenant}",
		"atmem_phase_duration_ns{tenant}",
		"atmem_phases_total{tenant}",
		"atmem_profiler_samples_total{tenant}",
		"atmem_scorecard_epoch{tenant}",
		"atmem_scorecard_fast_access_share{tenant}",
		"atmem_scorecard_fast_residency_efficiency{tenant}",
		"atmem_scorecard_migration_efficiency{tenant}",
		"atmem_scorecard_overhead_tax{tenant}",
		"atmem_tier_mapped_bytes{tenant,tier}",
		"atmem_tier_read_bytes_total{tenant,tier}",
		"atmem_tier_reserved_bytes{tenant,tier}",
		"atmem_tier_write_bytes_total{tenant,tier}",
		"atmem_tier_writeback_bytes_total{tenant,tier}",
		"atmem_tlb_shootdowns_applied_total{tenant}",
	}
	if !slices.Equal(got, want) {
		t.Errorf("metric families changed:\n got %q\nwant %q", got, want)
	}
}
