package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"escape/internal/experiments"
)

// TestQuickIsRegistryQuick pins -quick to exactly what the determinism
// suite runs: every experiment, each with its full defaults overlaid by
// the registry's Quick overrides.
func TestQuickIsRegistryQuick(t *testing.T) {
	pl, err := parseArgs([]string{"-quick"})
	if err != nil {
		t.Fatal(err)
	}
	reg := experiments.Registry()
	if len(pl.jobs) != len(reg) {
		t.Fatalf("-quick selected %d experiments, the registry has %d", len(pl.jobs), len(reg))
	}
	for i, r := range reg {
		want := experiments.Params{}
		for k, v := range r.Params {
			want[k] = v
		}
		for k, v := range r.Quick {
			want[k] = v
		}
		j := pl.jobs[i]
		if j.reg.ID != r.ID || !reflect.DeepEqual(j.params, want) {
			t.Errorf("-quick runs %s with %v, want %s with %v", j.reg.ID, j.params, r.ID, want)
		}
	}
}

func TestParamOverrides(t *testing.T) {
	pl, err := parseArgs([]string{"-e", "e11", "-p", "kills=1,3", "-p", "chain=6"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.jobs) != 1 || pl.jobs[0].reg.ID != "e11" {
		t.Fatalf("jobs %+v, want e11 alone", pl.jobs)
	}
	if want := (experiments.Params{"kills": "1,3", "chain": "6", "conc": "4"}); !reflect.DeepEqual(pl.jobs[0].params, want) {
		t.Fatalf("params %v, want %v", pl.jobs[0].params, want)
	}
	// -quick sizes first, -p wins over it.
	pl, err = parseArgs([]string{"-e", "e13", "-quick", "-p", "tenants=3"})
	if err != nil {
		t.Fatal(err)
	}
	if want := (experiments.Params{"tenants": "3", "intents": "3", "chain": "2"}); !reflect.DeepEqual(pl.jobs[0].params, want) {
		t.Fatalf("params %v, want %v", pl.jobs[0].params, want)
	}
}

// TestCommandLineErrors covers the command lines refused before any
// experiment runs.
func TestCommandLineErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-e", "e3", "-p", "nope=1"}, `no parameter "nope"`},
		{[]string{"-e", "e3", "-p", "sizes"}, "want key=value"},
		{[]string{"-e", "e3", "-p", "=3"}, "want key=value"},
		{[]string{"-p", "sizes=3"}, "exactly one experiment"},
		{[]string{"-e", "e3,e4", "-p", "sizes=3"}, "exactly one experiment"},
		{[]string{"-e", "e3,e4", "-json", "x.json"}, "exactly one experiment"},
		{[]string{"-e", "e99"}, `unknown experiment "e99"`},
		{[]string{"-e", "e10"}, `unknown experiment "e10"`},
		{[]string{"-e", "e12"}, `unknown experiment "e12"`},
		{[]string{"-e", "e6"}, `unknown experiment "e6"`},
		{[]string{"-e", "e9"}, `unknown experiment "e9"`},
		{[]string{"-sizes", "10"}, "not defined"}, // per-experiment flags are -p keys now
		{[]string{"-e", "e3", "extra"}, "unexpected arguments"},
	} {
		_, err := parseArgs(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestBadParamValuesFailBeforeRunning: each Run parses its keys before it
// does any work, so a malformed or non-positive value is an error and no
// table is printed.
func TestBadParamValuesFailBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-e", "e3", "-p", "sizes=10,x"}, "sizes"},
		{[]string{"-e", "e3", "-p", "sizes=0"}, "sizes"},
		{[]string{"-e", "e11", "-p", "chain=-1"}, "chain"},
		{[]string{"-e", "e11", "-p", "chain=2,3"}, "chain"},
		{[]string{"-e", "e13", "-p", "intents="}, "intents"},
		{[]string{"-e", "e14", "-p", "services=0"}, "services"},
		{[]string{"-e", "e14", "-p", "procs=diurnal,weekly"}, "procs"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want one naming %q", tc.args, err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("%q: printed a table despite the error:\n%s", tc.args, out.String())
		}
	}
}
