package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// TestE14BitIdentical is stricter than the generic determinism suite
// (which tolerates numeric drift across runs): E14 cells derive purely
// from virtual time, so two runs of the same config must produce
// byte-equal rows in every column except the two that measure the
// machine rather than the model (wall_ms, speedup) — including the
// rows the parallel player produced.
func TestE14BitIdentical(t *testing.T) {
	cfg := E14Config{Faults: 2, Workers: 2}
	a, err := E14ScaleSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E14ScaleSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Columns, b.Columns) {
		t.Fatalf("columns diverged:\n%v\n%v", a.Columns, b.Columns)
	}
	machine := map[string]bool{"wall_ms": true, "speedup": true}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row count diverged: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for c, col := range a.Columns {
			if machine[col] {
				continue
			}
			if a.Rows[i][c] != b.Rows[i][c] {
				t.Fatalf("row %d column %s diverged: %q vs %q\n%v\n%v",
					i, col, a.Rows[i][c], b.Rows[i][c], a.Rows[i], b.Rows[i])
			}
		}
	}
}

// TestE14QuickShape checks the quick cell does real work on all three
// arrival processes, that each cell gains a parallel row whose report
// matched the serial one, and that the JSON artifact round-trips.
func TestE14QuickShape(t *testing.T) {
	tb, err := E14ScaleSim(E14Config{Faults: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows %d, want 6 (serial + parallel per arrival process)", len(tb.Rows))
	}
	cell := func(r []string, col string) string {
		t.Helper()
		c := tb.Col(col)
		if c < 0 {
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
		if w := cell(r, "workers"); w != "1" && w != "2" {
			t.Fatalf("%s: unexpected workers %s", proc, w)
		}
		if cell(r, "par_match") != "true" {
			t.Fatalf("%s (workers=%s): parallel report diverged from serial", proc, cell(r, "workers"))
		}
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

	// The JSON artifact round-trips with typed cells.
	path := filepath.Join(t.TempDir(), "BENCH_E14.json")
	if err := tb.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		ID      string
		Title   string
		Columns []string
		Rows    []map[string]any
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.ID != tb.ID || art.Title != tb.Title || !reflect.DeepEqual(art.Columns, tb.Columns) || len(art.Rows) != len(tb.Rows) {
		t.Fatalf("artifact header diverged from table: %+v", art)
	}
	for i, r := range art.Rows {
		if r["proc"] != cell(tb.Rows[i], "proc") {
			t.Errorf("row %d proc = %v (string cell must stay a string)", i, r["proc"])
		}
		if r["admitted"] != num(tb.Rows[i], "admitted") {
			t.Errorf("row %d admitted = %v (%T), want number %v", i, r["admitted"], r["admitted"], num(tb.Rows[i], "admitted"))
		}
		if r["par_match"] != true {
			t.Errorf("row %d par_match = %v (%T), want boolean true", i, r["par_match"], r["par_match"])
		}
	}
}
