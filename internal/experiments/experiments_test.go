package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The experiment functions are exercised with small parameters: these
// tests assert that each harness runs end to end and produces the
// expected table shape; the real measurement runs live in bench_test.go
// and cmd/escape-bench.

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

func TestE5Steering(t *testing.T) {
	tbl, err := E5Steering([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 8) // 2 lengths × 2 modes × 2 transports
}

func TestE6ClickDataPlane(t *testing.T) {
	tbl, err := E6ClickDataPlane([]int{1, 2}, []int{64}, 200)
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 4) // 2 lengths × 1 size × 2 drivers
	for i, row := range tbl.Rows {
		if want := []string{"single", "fused"}[i%2]; row[2] != want {
			t.Errorf("E6 row %d is driver %s, want %s", i, row[2], want)
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

func TestE10MultiDomain(t *testing.T) {
	tbl, err := E10MultiDomain(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 6) // 3 spans × 2 modes
	modes := map[string]bool{}
	for _, row := range tbl.Rows {
		modes[row[1]] = true
		if row[8] == "0" {
			t.Errorf("span %s %s: stitched flow counters read 0 packets", row[0], row[1])
		}
	}
	for _, m := range []string{"hier", "flat"} {
		if !modes[m] {
			t.Errorf("mode %s missing from E10 ablation", m)
		}
	}
	// The widest span must actually cross ≥2 gateways (3 domains).
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "3" {
		t.Fatalf("last row span = %s", last[0])
	}
	if last[6] == "0" {
		t.Error("span-3 chain reports zero inter-domain hops")
	}
}

func TestE9DeployThroughput(t *testing.T) {
	tbl, err := E9DeployThroughput([]int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 2) // 1 concurrency × 2 modes
	modes := map[string]bool{}
	for _, row := range tbl.Rows {
		modes[row[1]] = true
	}
	for _, m := range []string{"seq", "par"} {
		if !modes[m] {
			t.Errorf("mode %s missing from E9 ablation", m)
		}
	}
}
