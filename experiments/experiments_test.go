package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// Each experiment must complete with every internal check passing; these
// tests are the "regenerate the paper" gate of the repository.

func TestE1(t *testing.T) { requireOK(t, E1()) }
func TestE2(t *testing.T) { requireOK(t, E2()) }
func TestE3(t *testing.T) { requireOK(t, E3()) }
func TestE4(t *testing.T) { requireOK(t, E4()) }
func TestE5(t *testing.T) { requireOK(t, E5()) }
func TestE6(t *testing.T) { requireOK(t, E6()) }

func TestE7Quick(t *testing.T) { requireOK(t, E7(false)) }

func TestE7Full(t *testing.T) {
	if testing.Short() {
		t.Skip("full E7 (ring-4 universal) is slow; run without -short")
	}
	requireOK(t, E7(true))
}

func TestE8(t *testing.T) { requireOK(t, E8()) }

func TestE9Quick(t *testing.T) { requireOK(t, E9(false)) }

func TestE9Full(t *testing.T) {
	if testing.Short() {
		t.Skip("full E9 builds a ~1M node Q̂12; run without -short")
	}
	requireOK(t, E9(true))
}

func TestE10(t *testing.T) { requireOK(t, E10()) }
func TestE11(t *testing.T) { requireOK(t, E11()) }
func TestE12(t *testing.T) { requireOK(t, E12()) }
func TestE13(t *testing.T) { requireOK(t, E13()) }
func TestE14(t *testing.T) { requireOK(t, E14()) }
func TestE15(t *testing.T) { requireOK(t, E15()) }
func TestE16(t *testing.T) { requireOK(t, E16()) }

func TestE17Quick(t *testing.T) { requireOK(t, E17(false)) }

func TestE17Full(t *testing.T) {
	if testing.Short() {
		t.Skip("full E17 (ring-4 triple) is slow; run without -short")
	}
	requireOK(t, E17(true))
}

func TestE18(t *testing.T) { requireOK(t, E18()) }
func TestE19(t *testing.T) { requireOK(t, E19()) }

// TestSweptTablesIgnoreScheduling renders the experiments whose rows run
// through sim.Sweep on one worker and on four, and requires identical
// markdown: results are position-stable, so the schedule must not show.
func TestSweptTablesIgnoreScheduling(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	render := func(procs int) []string {
		runtime.GOMAXPROCS(procs)
		var out []string
		for _, e := range []func() *Table{E3, E5, E13, E18} {
			out = append(out, e().Markdown())
		}
		return out
	}
	serial, parallel := render(1), render(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("table differs between GOMAXPROCS=1 and 4:\n%s\nvs\n%s", serial[i], parallel[i])
		}
	}
}

func TestRegistryIsCompleteAndDistinct(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; covered individually in short mode")
	}
	tables := All(false)
	if len(tables) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(tables))
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if seen[tbl.ID] {
			t.Fatalf("duplicate experiment ID %s", tbl.ID)
		}
		seen[tbl.ID] = true
		if tbl.Title == "" || tbl.PaperRef == "" || len(tbl.Columns) == 0 {
			t.Fatalf("%s: incomplete metadata", tbl.ID)
		}
		if !tbl.OK() {
			t.Fatalf("%s failed: %v", tbl.ID, tbl.Failed)
		}
	}
}

func requireOK(t *testing.T, tbl *Table) {
	t.Helper()
	if !tbl.OK() {
		for _, f := range tbl.Failed {
			t.Errorf("%s: %s", tbl.ID, f)
		}
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", tbl.ID)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tbl.AddRow(1, "x")
	tbl.AddRow("yy", 2)
	tbl.Check(false, "deliberate failure %d", 7)
	md := tbl.Markdown()
	for _, want := range []string{"### EX", "| a | bb |", "| 1 | x |", "deliberate failure 7"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	txt := tbl.Text()
	for _, want := range []string{"EX — demo", "deliberate failure 7"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text missing %q:\n%s", want, txt)
		}
	}
	if tbl.OK() {
		t.Fatal("OK() should be false after a failed check")
	}
}
