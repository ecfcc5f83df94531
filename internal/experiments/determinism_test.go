package experiments

import (
	"math"
	"strconv"
	"testing"
)

// TestExperimentsDeterministic runs every registered experiment twice in
// quick mode and asserts the two results are structurally identical: same
// row/column counts, identical non-numeric (label/ablation) cells, and
// every numeric cell a finite number. Timings differ between runs by
// nature; labels, parameter sweeps and ablation axes must not.
func TestExperimentsDeterministic(t *testing.T) {
	for _, reg := range Registry() {
		reg := reg
		t.Run(reg.ID, func(t *testing.T) {
			p, err := reg.With(true, nil)
			if err != nil {
				t.Fatal(err)
			}
			a, err := reg.Run(p)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := reg.Run(p)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.ID != b.ID || len(a.Columns) != len(b.Columns) {
				t.Fatalf("table shape changed between runs: %s/%d vs %s/%d",
					a.ID, len(a.Columns), b.ID, len(b.Columns))
			}
			if len(a.Rows) != len(b.Rows) {
				t.Fatalf("row count %d vs %d", len(a.Rows), len(b.Rows))
			}
			for i := range a.Rows {
				ra, rb := a.Rows[i], b.Rows[i]
				if len(ra) != len(rb) {
					t.Fatalf("row %d width %d vs %d", i, len(ra), len(rb))
				}
				for j := range ra {
					checkCell(t, a.ID, i, j, ra[j])
					checkCell(t, b.ID, i, j, rb[j])
					_, aNum := parseNum(ra[j])
					_, bNum := parseNum(rb[j])
					if aNum != bNum {
						t.Errorf("row %d col %q: %q vs %q changed numericness",
							i, a.Columns[j], ra[j], rb[j])
						continue
					}
					// Non-numeric cells are labels (algorithm names,
					// ablation axes, sweep parameters): must be stable.
					if !aNum && ra[j] != rb[j] {
						t.Errorf("row %d col %q: label %q vs %q", i, a.Columns[j], ra[j], rb[j])
					}
				}
			}
		})
	}
}

// checkCell asserts a numeric cell is a finite number.
func checkCell(t *testing.T, id string, row, col int, cell string) {
	t.Helper()
	if v, ok := parseNum(cell); ok {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s row %d col %d: non-finite metric %q", id, row, col, cell)
		}
	}
}

func parseNum(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}
