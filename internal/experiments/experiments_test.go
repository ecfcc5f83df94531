package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The experiment functions are exercised with small parameters: these
// tests assert that each harness runs end to end and produces the
// expected table shape; full-size runs are cmd/escape-bench's.

func renderOK(t *testing.T, tbl *Table, wantRows int) {
	t.Helper()
	if len(tbl.Rows) < wantRows {
		t.Fatalf("%s: %d rows, want ≥%d", tbl.ID, len(tbl.Rows), wantRows)
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, tbl.ID) || !strings.Contains(out, tbl.Columns[0]) {
		t.Errorf("render output malformed:\n%s", out)
	}
}

// TestTableWriteJSON round-trips the CI artifact format on a synthetic
// table: integer and float cells become JSON numbers, true/yes become
// booleans, labels and the "-" placeholder stay strings, and a row whose
// width does not match the columns is refused.
func TestTableWriteJSON(t *testing.T) {
	tb := &Table{
		ID: "EX", Title: "synthetic",
		Columns: []string{"label", "count", "ratio", "flag", "answer", "missing"},
	}
	tb.AddRow("diurnal", "42", "99.125", "true", "yes", "-")
	tb.AddRow("flash", "-7", "0.5", "false", "no", "n/a")
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tb.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID      string
		Title   string
		Columns []string
		Rows    []map[string]any
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != tb.ID || got.Title != tb.Title || !reflect.DeepEqual(got.Columns, tb.Columns) {
		t.Fatalf("artifact header diverged from table: %+v", got)
	}
	want := []map[string]any{
		{"label": "diurnal", "count": 42.0, "ratio": 99.125, "flag": true, "answer": true, "missing": "-"},
		{"label": "flash", "count": -7.0, "ratio": 0.5, "flag": false, "answer": false, "missing": "n/a"},
	}
	if !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("rows decoded as\n%#v\nwant\n%#v", got.Rows, want)
	}

	tb.AddRow("short", "1")
	if err := tb.WriteJSON(path); err == nil {
		t.Fatal("WriteJSON accepted a row narrower than the columns")
	}
}

func TestE1Architecture(t *testing.T) {
	tbl, err := E1Architecture()
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 7)
}

func TestE2Demo(t *testing.T) {
	tbl, err := E2Demo()
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 5)
	// Every demo step must appear.
	steps := map[string]bool{}
	for _, row := range tbl.Rows {
		steps[row[0]] = true
	}
	for _, s := range []string{"1", "2", "3", "4", "5"} {
		if !steps[s] {
			t.Errorf("demo step %s missing", s)
		}
	}
}

func TestE3Scale(t *testing.T) {
	tbl, err := E3Scale([]int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 2)
}

func TestE4Mapping(t *testing.T) {
	tbl, err := E4Mapping(8, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 4)
	// All four algorithms must be present.
	algos := map[string]bool{}
	for _, row := range tbl.Rows {
		algos[row[0]] = true
	}
	for _, a := range []string{"greedy", "ksp", "backtrack", "random"} {
		if !algos[a] {
			t.Errorf("algorithm %s missing from E4", a)
		}
	}
}

// TestE5Steering: one row per path length, and every switch on the path
// holds exactly one steering rule for it.
func TestE5Steering(t *testing.T) {
	tbl, err := E5Steering([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 3)
	if got, want := strings.Join(tbl.Columns, ","), "switches,rules,install_ms,first_pkt_ms"; got != want {
		t.Errorf("E5 columns are %s, want %s", got, want)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("E5 has %d rows, want one per length: 3", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if want := fmt.Sprint(i + 1); row[0] != want || row[1] != want {
			t.Errorf("E5 row %d: switches %s rules %s, want %s and %s", i, row[0], row[1], want, want)
		}
	}
}

func TestE7NETCONF(t *testing.T) {
	tbl, err := E7NETCONF([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 2)
}

func TestE8ServiceCreation(t *testing.T) {
	tbl, err := E8ServiceCreation([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 2)
}

// TestE13ControlPlane: at the quick parameters E13 has its three phases
// in order, and the recovered view matches the intent set after each.
func TestE13ControlPlane(t *testing.T) {
	tbl := quickRun(t, "e13")
	renderOK(t, tbl, 3)
	if got, want := strings.Join(tbl.Columns, ","), "phase,tenants,intents,recover_ms,view_match"; got != want {
		t.Errorf("E13 columns are %s, want %s", got, want)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("E13 has %d rows, want one per phase: 3", len(tbl.Rows))
	}
	for i, phase := range []string{"churn", "wal-replay", "cold-start"} {
		row := tbl.Rows[i]
		if row[0] != phase {
			t.Errorf("E13 row %d is phase %s, want %s", i, row[0], phase)
		}
		if match := row[len(row)-1]; match != "yes" {
			t.Errorf("E13 %s: view_match %s, want yes", row[0], match)
		}
	}
}
