package harness

import (
	"bytes"
	"strings"
	"testing"

	"atmem"
)

func TestTestbedFor(t *testing.T) {
	for _, id := range []TestbedID{NVM, KNL} {
		if _, err := TestbedFor(id); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if _, err := TestbedFor("x86"); err == nil {
		t.Error("unknown testbed accepted")
	}
}

func TestRunBaselinePokec(t *testing.T) {
	res, err := Run(RunConfig{Testbed: NVM, App: "bfs", Dataset: "pokec", Policy: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if res.IterSeconds <= 0 || res.FirstIterSeconds <= 0 {
		t.Error("missing iteration times")
	}
	if !res.Validated {
		t.Error("result not validated")
	}
	if res.Migration.BytesMoved != 0 {
		t.Error("baseline run migrated data")
	}
	if res.DataRatio != 0 {
		t.Errorf("baseline data ratio %v", res.DataRatio)
	}
}

func TestRunATMemPokec(t *testing.T) {
	res, err := Run(RunConfig{Testbed: NVM, App: "pr", Dataset: "pokec", Policy: ATMem})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Error("no profiler samples")
	}
	if res.Migration.BytesMoved == 0 {
		t.Error("nothing migrated")
	}
	if res.DataRatio <= 0 || res.DataRatio > 0.6 {
		t.Errorf("data ratio %v", res.DataRatio)
	}
}

func TestSuiteMemoizes(t *testing.T) {
	s := NewSuite()
	cfg := RunConfig{Testbed: NVM, App: "bfs", Dataset: "pokec", Policy: Baseline}
	a, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterSeconds != b.IterSeconds {
		t.Error("memoized result differs")
	}
}

func TestRunConfigKeyDistinguishesFields(t *testing.T) {
	base := RunConfig{Testbed: NVM, App: "bfs", Dataset: "pokec"}
	variants := []RunConfig{
		{Testbed: KNL, App: "bfs", Dataset: "pokec"},
		{Testbed: NVM, App: "pr", Dataset: "pokec"},
		{Testbed: NVM, App: "bfs", Dataset: "twitter"},
		{Testbed: NVM, App: "bfs", Dataset: "pokec", Policy: ATMem},
		{Testbed: NVM, App: "bfs", Dataset: "pokec", Mechanism: atmem.MigrateMbind},
		{Testbed: NVM, App: "bfs", Dataset: "pokec", Epsilon: 0.5},
		{Testbed: NVM, App: "bfs", Dataset: "pokec", SkipValidate: true},
	}
	for i, v := range variants {
		if v.key() == base.key() {
			t.Errorf("variant %d collides with base key", i)
		}
	}
}

func TestExperimentsRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig1a", "fig1b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tab3", "tab4", "overhead"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, err := ExperimentByID("fig5"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestReportRenderers(t *testing.T) {
	r := &Report{
		ID:      "t1",
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
	}
	r.AddRow("5", "6")
	r.AddNote("note %d", 7)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"t1", "a", "5", "note 7"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text output missing %q", want)
		}
	}

	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 4 || lines[0] != "a,b" || lines[3] != "5,6" {
		t.Errorf("csv output:\n%s", csv.String())
	}

	var md bytes.Buffer
	if err := r.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| a | b |") {
		t.Errorf("markdown output:\n%s", md.String())
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONReports(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].ID != "t1" || len(back[0].Rows) != 3 {
		t.Errorf("json round trip: %+v", back)
	}
}

func TestCSVRejectsCellsNeedingQuoting(t *testing.T) {
	r := &Report{Columns: []string{"a"}, Rows: [][]string{{"x,y"}}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err == nil {
		t.Error("comma cell accepted")
	}
}

func TestExtensionExperimentsRegistered(t *testing.T) {
	want := map[string]bool{"accuracy": false, "locality": false, "aggbw": false,
		"robustness": false, "adaptive-pressure": false, "overlap": false,
		"chaos-soak": false, "serving": false, "policy-shootout": false}
	for _, e := range ExtensionExperiments() {
		if _, ok := want[e.ID]; !ok {
			t.Errorf("unexpected extension %s", e.ID)
		}
		want[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("incomplete extension %s", e.ID)
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("missing extension %s", id)
		}
	}
	// Extensions resolve by id but stay out of the paper set.
	if _, err := ExperimentByID("accuracy"); err != nil {
		t.Error(err)
	}
	for _, e := range Experiments() {
		if e.ID == "accuracy" || e.ID == "locality" || e.ID == "aggbw" || e.ID == "robustness" {
			t.Errorf("extension %s leaked into the paper artifact set", e.ID)
		}
	}
}
