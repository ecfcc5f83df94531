// Package linttest is an analysistest-style harness for the escape-lint
// analyzers: it loads checked-in corpora from testdata/src/<pkg>/,
// runs one analyzer over them, and compares the diagnostics against
// `// want "regexp"` comments in the corpus, in both directions — an
// unexpected diagnostic fails the test, and so does a want with no
// matching diagnostic. The second direction is what makes the suites
// teeth: weakening an analyzer leaves its regression wants unmatched.
//
//lint:ignore deadexport test-support package: only the analyzer suites import it
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"escape/internal/lint"
)

var (
	loadOnce sync.Once
	shared   *lint.TestLoader
	loadErr  error
)

// loader builds the export-data universe once per test binary: every
// escape package (so corpora can import the real internal/click) plus
// all their std dependencies.
func loader(t *testing.T) *lint.TestLoader {
	t.Helper()
	loadOnce.Do(func() {
		shared, loadErr = lint.NewTestLoader(".", []string{"escape/..."})
		if loadErr != nil {
			return
		}
		entries, err := os.ReadDir(filepath.Join("testdata", "src"))
		if err != nil {
			loadErr = err
			return
		}
		for _, e := range entries {
			if e.IsDir() {
				abs, err := filepath.Abs(filepath.Join("testdata", "src", e.Name()))
				if err != nil {
					loadErr = err
					return
				}
				shared.AddSource(e.Name(), abs)
			}
		}
	})
	if loadErr != nil {
		t.Fatalf("linttest: loading universe: %v", loadErr)
	}
	return shared
}

// Run loads each corpus package from testdata/src/<name>/, applies the
// analyzer of lint.All named analyzer, and checks diagnostics against
// the want comments.
func Run(t *testing.T, analyzer string, pkgNames ...string) {
	t.Helper()
	var a *lint.Analyzer
	for _, cand := range lint.All {
		if cand.Name == analyzer {
			a = cand
		}
	}
	if a == nil {
		t.Fatalf("linttest: no analyzer %q in lint.All", analyzer)
	}
	ld := loader(t)
	var pkgs []*lint.Package
	for _, name := range pkgNames {
		abs, err := filepath.Abs(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := ld.LoadDir(name, abs)
		if err != nil {
			t.Fatalf("linttest: loading corpus %s: %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := lint.Run(pkgs, pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: running %s: %v", a.Name, err)
	}
	checkWants(t, a, pkgs, diags)
}

// want is one expectation parsed from a corpus comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRe pulls the quoted or backquoted patterns out of a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func checkWants(t *testing.T, a *lint.Analyzer, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
					}
				}
			}
		}
	}

	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matching %q", w.file, w.line, a.Name, w.raw)
		}
	}
}
