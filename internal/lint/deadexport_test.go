package lint_test

import (
	"slices"
	"testing"

	"escape/internal/lint"
	"escape/internal/lint/linttest"
)

func TestDeadExport(t *testing.T) {
	linttest.Run(t, "deadexport", "deadexport", "deadexportuse")
}

// TestLoadModulesReachesBench: uses are counted over the root module
// and the bench module beside it, whichever module escape-lint runs in.
func TestLoadModulesReachesBench(t *testing.T) {
	for _, dir := range []string{".", "../../bench"} {
		pkgs, err := lint.LoadModules(dir)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.PkgPath)
		}
		for _, want := range []string{"escape/bench", "escape/cmd/escape", "escape/internal/lint"} {
			if !slices.Contains(paths, want) {
				t.Errorf("LoadModules(%s) misses %s", dir, want)
			}
		}
	}
}
