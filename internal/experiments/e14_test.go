package experiments

import (
	"reflect"
	"strconv"
	"testing"
)

// quickRun runs experiment id with the registry's quick parameters.
func quickRun(t *testing.T, id string) *Table {
	t.Helper()
	for _, r := range Registry() {
		if r.ID != id {
			continue
		}
		p, err := r.With(true, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := r.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	t.Fatalf("Registry has no %s", id)
	return nil
}

// TestE14BitIdentical is stricter than the generic determinism suite
// (which tolerates numeric drift across runs): every E14 column derives
// purely from virtual time, so two runs of the same parameters must
// produce byte-equal tables, every column included.
func TestE14BitIdentical(t *testing.T) {
	a, b := quickRun(t, "e14"), quickRun(t, "e14")
	if !reflect.DeepEqual(a.Columns, b.Columns) || len(a.Rows) != len(b.Rows) {
		t.Fatalf("table shape diverged:\n%v (%d rows)\n%v (%d rows)", a.Columns, len(a.Rows), b.Columns, len(b.Rows))
	}
	for i := range a.Rows {
		for c, col := range a.Columns {
			if a.Rows[i][c] != b.Rows[i][c] {
				t.Fatalf("row %d column %s diverged: %q vs %q\n%v\n%v",
					i, col, a.Rows[i][c], b.Rows[i][c], a.Rows[i], b.Rows[i])
			}
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("title or notes diverged:\n%+v\n%+v", a, b)
	}
}

// TestE14QuickShape checks the quick cell does real work on all three
// arrival processes, one row each.
func TestE14QuickShape(t *testing.T) {
	tb := quickRun(t, "e14")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d, want 3 (one per arrival process)", len(tb.Rows))
	}
	colIdx := map[string]int{}
	for i, c := range tb.Columns {
		colIdx[c] = i
	}
	cell := func(r []string, col string) string {
		t.Helper()
		c, ok := colIdx[col]
		if !ok {
			t.Fatalf("E14 table has no %q column: %v", col, tb.Columns)
		}
		return r[c]
	}
	num := func(r []string, col string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(cell(r, col), 64)
		if err != nil {
			t.Fatalf("E14 %s cell %q: %v", col, cell(r, col), err)
		}
		return v
	}
	seen := map[string]bool{}
	for _, r := range tb.Rows {
		proc := cell(r, "proc")
		seen[proc] = true
		admitted, rejected := num(r, "admitted"), num(r, "rejected")
		if admitted == 0 {
			t.Fatalf("%s: no admissions: %v", proc, r)
		}
		if admitted+rejected != num(r, "services") {
			t.Fatalf("%s: admitted %v + rejected %v != services %v",
				proc, admitted, rejected, num(r, "services"))
		}
		if peak := num(r, "peak_act"); peak <= 0 || peak > admitted {
			t.Fatalf("%s: peak_act %v out of range", proc, peak)
		}
		if dlv := num(r, "dlv_pct"); dlv <= 0 || dlv > 100 {
			t.Fatalf("%s: dlv_pct %v out of range", proc, dlv)
		}
		if num(r, "heal_mv") == 0 && num(r, "rerouted") > 0 {
			t.Fatalf("%s: rerouted without heal moves: %v", proc, r)
		}
	}
	for _, p := range []string{"diurnal", "flash", "pareto"} {
		if !seen[p] {
			t.Fatalf("missing %s cell", p)
		}
	}
}
