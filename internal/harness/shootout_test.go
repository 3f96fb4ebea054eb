package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"atmem"
	"atmem/internal/memsim"
)

// TestCheckBars pins the bar logic on synthetic results, independent of
// the simulator: the ordering invariants and the gap-closure count.
func TestCheckBars(t *testing.T) {
	mk := func(app string, static, paper, learned, oracle float64) []ShootoutCell {
		return []ShootoutCell{
			{App: app, Policy: "static", FastAccessShare: static},
			{App: app, Policy: "paper", FastAccessShare: paper},
			{App: app, Policy: "learned", FastAccessShare: learned},
			{App: app, Policy: "oracle", FastAccessShare: oracle},
		}
	}
	ok := &ShootoutResult{Cells: mk("bfs", 0.1, 0.3, 0.5, 0.6), GapClosedKernels: 1}
	if err := ok.checkBars(1); err != nil {
		t.Errorf("clean ordering rejected: %v", err)
	}
	if err := ok.checkBars(2); err == nil {
		t.Error("gap bar of 2 passed with only 1 closed kernel")
	}
	badOracle := &ShootoutResult{Cells: mk("bfs", 0.1, 0.5, 0.5, 0.4)}
	if err := badOracle.checkBars(0); err == nil {
		t.Error("oracle below paper passed the bars")
	}
	badPaper := &ShootoutResult{Cells: mk("bfs", 0.5, 0.3, 0.5, 0.6)}
	if err := badPaper.checkBars(0); err == nil {
		t.Error("paper below static passed the bars")
	}
	// Within-epsilon ties must pass: equal shares are not a regression.
	tie := &ShootoutResult{Cells: mk("bfs", 0.3, 0.3, 0.3, 0.3)}
	if err := tie.checkBars(0); err != nil {
		t.Errorf("exact ties rejected: %v", err)
	}
}

// TestPolicyShootout runs the full seven-kernel shootout end to end —
// the same configuration CI's smoke step uses — and asserts the
// acceptance bars hold: oracle >= paper >= static on every kernel, and
// the learned policy closes at least half the paper->oracle gap on at
// least GapBarKernels kernels. RunPolicyShootout enforces the bars
// itself (Assert); the test additionally pins the result's shape and
// the artifact/report plumbing.
func TestPolicyShootout(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy shootout is a multi-second simulation")
	}
	scn := DefaultShootoutScenario()
	scn.TraceDir = t.TempDir()
	res, err := RunPolicyShootout(scn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels != len(ShootoutApps) {
		t.Errorf("kernels = %d, want %d", res.Kernels, len(ShootoutApps))
	}
	if want := len(ShootoutApps) * 4; len(res.Cells) != want {
		t.Errorf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if !c.Validated {
			t.Errorf("%s/%s: kernel result not validated", c.App, c.Policy)
		}
		if c.FastAccessShare <= 0 || c.FastAccessShare >= 1 {
			t.Errorf("%s/%s: implausible fast-access share %v", c.App, c.Policy, c.FastAccessShare)
		}
		if c.Policy != "oracle" && c.GapToOracle < -1e-9 && c.Policy != "learned" {
			t.Errorf("%s/%s: negative gap-to-oracle %v", c.App, c.Policy, c.GapToOracle)
		}
	}
	if res.Train.Pairs == 0 || res.Train.FinalViolations >= res.Train.InitialViolations {
		t.Errorf("training did not converge: %+v", res.Train)
	}

	// The artifact round-trips through the JSON the report tool reads.
	data, err := os.ReadFile(filepath.Join(scn.TraceDir, "policy-shootout.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back ShootoutResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(res.Cells) {
		t.Errorf("artifact cells = %d, want %d", len(back.Cells), len(res.Cells))
	}
	rep := ShootoutReportOf(&back)
	if len(rep.Rows) != len(res.Cells) {
		t.Errorf("report rows = %d, want %d", len(rep.Rows), len(res.Cells))
	}
}

// TestShootoutOneShotPlacesTailChunks pins Optimize's handling of a
// budget-clipped plan range that ends inside a chunk: on the shootout's
// bfs/paper cell the bfs.edges range ends 12,416 bytes into a 16 KiB
// chunk, and every planned byte, that partial tail included, must end
// up fast-resident. The delta reads residency from the page table at
// byte granularity, so the one-shot and the governed runtime place the
// same bytes.
func TestShootoutOneShotPlacesTailChunks(t *testing.T) {
	scn := DefaultShootoutScenario()
	tb, err := shootoutTestbed(scn)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		extra []atmem.Option
	}{
		{"oneshot", nil},
		{"governed", []atmem.Option{atmem.WithGovernor(atmem.GovernorOptions{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, _, _, err := optimizeShootoutCell(tb, scn, "bfs", atmem.PaperPolicy(), tc.extra...)
			if err != nil {
				t.Fatal(err)
			}
			plan := rt.Plan()
			if plan == nil || plan.SelectedBytes == 0 {
				t.Fatal("Optimize selected nothing")
			}
			clipped := 0
			for _, op := range plan.Objects {
				o := op.Object
				for _, rg := range op.Ranges {
					if rg.End() < o.Base+o.Size && (rg.End()-o.Base)%o.ChunkSize != 0 {
						clipped++
					}
					if fast := rt.System().BytesOnTier(rg.Base, rg.Size)[memsim.TierFast]; fast != rg.Size {
						t.Errorf("%s range [%#x,+%d): %d bytes fast-resident, want all",
							o.Name, rg.Base, rg.Size, fast)
					}
				}
			}
			if clipped == 0 {
				t.Error("no plan range ends inside a chunk short of its object's end; the case this test pins did not arise")
			}
		})
	}
}
