package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

// deploys marks a test that deploys services on an emulated network and
// skips it under the race detector: netem.(*Network).allocMAC is reached
// without a lock by two agents' concurrent ConnectVNF, which every deploy
// that places NFs on two EEs causes (the orchestrator realizes per EE in
// parallel). That code is outside this directory; until it is fixed in an
// issue of its own, -race covers the benchmark's code on admit_scale, the
// isolated layer drivers, -out and -compare.
func deploys(t *testing.T) {
	t.Helper()
	if raceDetector {
		t.Skip("netem.allocMAC races under concurrent ConnectVNF (see bench/README.md, Findings)")
	}
}

var deployingWorkloads = map[string]bool{"deploy_churn": true, "chain_64B": true, "chains_mixed_1400B": true}

// runSmoke runs one workload through the command's own entry point at
// smoke size and returns the parsed result line and the listing before it.
func runSmoke(t *testing.T, workload string, trace bool, extra ...string) (resultLine, string) {
	t.Helper()
	seconds := "0.6"
	if trace {
		seconds = "1.2" // a traced run splits its time three ways
	}
	args := []string{"-workload", workload, "-seed", "3", "-seconds", seconds, "-datadir", t.TempDir()}
	if trace {
		args = append(args, "-trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := run(append(args, extra...), &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%v: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	return res, stdout.String()
}

func metricNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload with and without tracing and checks the
// emitted workload and metric names, with their units, against
// BENCHMARK.json one to one, and that an untraced run lists every one of
// the issue's metrics of its workload. Every admit_scale run compares the
// parallel player's report, and a traced one its own loop's too, with
// PlayScenario's; a difference would make the run incorrect.
func TestSmoke(t *testing.T) {
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range m.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := workloadNames(); strings.Join(got, " ") != strings.Join(listed, " ") {
		t.Fatalf("workloads: program has %v, BENCHMARK.json has %v", got, listed)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, d := range m.EndToEnd {
		e2e[d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		layer[d.Name] = d.Unit
	}
	for _, w := range listed {
		if len(issueMetricsOf(w)) == 0 {
			t.Errorf("%s has none of the issue's metrics", w)
		}
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				if deployingWorkloads[w] {
					deploys(t)
				}
				res, listing := runSmoke(t, w, trace)
				want := e2e
				if trace {
					want = layer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d: %v", len(res.Metrics), len(want), metricNames(res.Metrics))
				}
				for name, v := range res.Metrics {
					if unit, ok := want[name]; !ok || unit != v.Unit {
						t.Errorf("metric %s (%s) is not in BENCHMARK.json with that unit", name, v.Unit)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %v", name, v.Value)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", name, v.Value)
					}
				}
				for _, d := range issueMetricsOf(w) {
					if !trace && !strings.Contains(listing, " "+d.Name+" ") {
						t.Errorf("the listing has no %s:\n%s", d.Name, listing)
					}
				}
			})
		}
	}
}

// TestInjectedFailureIsCounted deploys chains whose firewall denies the
// probe: the run must report failed operations and correct=false instead
// of passing silently.
func TestInjectedFailureIsCounted(t *testing.T) {
	deploys(t)
	o, err := runDeployChurn(runConfig{workload: "deploy_churn", seed: 3, seconds: 0.3, datadir: t.TempDir(), inject: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.attempted < 1 || o.failed != o.attempted {
		t.Fatalf("attempted %d, failed %d: every cycle's probe is denied and must count as failed", o.attempted, o.failed)
	}
}

// TestSeedReachesInputsOnly pins that the same seed generates the same
// admit_scale trace and another seed a different one of the same
// structure.
func TestSeedReachesInputsOnly(t *testing.T) {
	a, b, c := buildAdmitInput(600, 5), buildAdmitInput(600, 5), buildAdmitInput(600, 6)
	if len(a.events) != len(b.events) || a.arrivals != b.arrivals {
		t.Fatalf("same seed, different traces: %d/%d events", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("same seed, event %d differs", i)
		}
	}
	if a.arrivals == c.arrivals && len(a.events) == len(c.events) {
		same := true
		for i := range a.events {
			same = same && a.events[i] == c.events[i]
		}
		if same {
			t.Fatal("seeds 5 and 6 generated the same trace")
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := sample{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := s.quartileSpread(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("quartile spread %v, want 1.0", got)
	}
}

func e2eRun(workload string, seed int64, ops, failed float64) runRecord {
	return runRecord{
		Workload: workload, Seed: seed, Seconds: 20, Params: map[string]any{"window": 256.0},
		Correct: failed == 0, Attempted: 100, Failed: int(failed),
		Metrics: map[string]metricValue{
			"setup_s": {1, "s"}, "ops_per_s": {ops, "1/s"}, "op_mean_us": {100, "us"}, "op2_mean_us": {50, "us"},
		},
		Issue: map[string]metricValue{
			"chain_kpps": {ops / 1e3, "kpps"}, "chain_rtt_p50_us": {90, "us"}, "chain_rtt_p99_us": {300, "us"},
			"play_events_per_s": {ops, "1/s"}, "play_par_events_per_s": {ops, "1/s"},
		},
	}
}

func compareStatus(t *testing.T, a, b []runRecord) (int, string) {
	t.Helper()
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := compareResults(m, &resultFile{Runs: a}, &resultFile{Runs: b}, "a.json", &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func TestCompare(t *testing.T) {
	base := []runRecord{e2eRun("chain_64B", 1, 1000, 0), e2eRun("chain_64B", 2, 1010, 0), e2eRun("chain_64B", 3, 990, 0)}
	scaled := func(f float64) []runRecord {
		out := make([]runRecord, len(base))
		for i, r := range base {
			out[i] = e2eRun(r.Workload, r.Seed, r.Metrics["ops_per_s"].Value*f, 0)
		}
		return out
	}
	if code, out := compareStatus(t, base, scaled(1.0)); code != 0 || !strings.Contains(out, "unchanged") {
		t.Errorf("A/A: exit %d\n%s", code, out)
	}
	if code, out := compareStatus(t, base, scaled(0.5)); code != 1 || !strings.Contains(out, "worse") {
		t.Errorf("halved throughput: exit %d\n%s", code, out)
	}
	if code, out := compareStatus(t, base, scaled(1.5)); code != 0 || !strings.Contains(out, "better") {
		t.Errorf("1.5× throughput: exit %d\n%s", code, out)
	}
	// Noise must not read as a gain: every run of b a hair above every run
	// of a is no regression, but the gain is inside a's own spread.
	hair := []runRecord{e2eRun("chain_64B", 1, 1011, 0), e2eRun("chain_64B", 2, 1012, 0), e2eRun("chain_64B", 3, 1013, 0)}
	if code, out := compareStatus(t, base, hair); code != 0 || strings.Contains(out, "better") || strings.Contains(out, "unresolved") {
		t.Errorf("gain within the base's spread: exit %d\n%s", code, out)
	}
	// One run per side has no spread to judge by, whichever way it reads.
	for _, f := range []float64{1.0, 1.001, 1.5, 0.5} {
		code, out := compareStatus(t, base[:1], scaled(f)[:1])
		if code != 0 || strings.Contains(out, "better") || strings.Contains(out, "worse") || !strings.Contains(out, "unresolved") {
			t.Errorf("one run per side, b = %g × a: exit %d\n%s", f, code, out)
		}
	}
	// The issue's own metrics are judged with the issue's bounds:
	// chain_rtt_p50_us may worsen by 5 %, which none of the manifest's
	// metrics would notice.
	slowP50 := scaled(1.0)
	for i := range slowP50 {
		slowP50[i].Issue["chain_rtt_p50_us"] = metricValue{97, "us"}
	}
	if code, out := compareStatus(t, base, slowP50); code != 1 || !strings.Contains(out, "worse") {
		t.Errorf("chain_rtt_p50_us 8 %% slower: exit %d\n%s", code, out)
	}
	noisy := []runRecord{e2eRun("chain_64B", 1, 600, 0), e2eRun("chain_64B", 2, 1000, 0), e2eRun("chain_64B", 3, 1400, 0)}
	if code, out := compareStatus(t, base, noisy); code != 0 || !strings.Contains(out, "unresolved") {
		t.Errorf("spread wider than the bound: exit %d\n%s", code, out)
	}
	failing := scaled(1.0)
	failing[0].Failed = 3
	if code, out := compareStatus(t, base, failing); code != 1 {
		t.Errorf("higher failed share: exit %d\n%s", code, out)
	}
	missing := scaled(1.0)
	delete(missing[1].Metrics, "op_mean_us")
	if code, out := compareStatus(t, base, missing); code != 2 {
		t.Errorf("metric on one side only: exit %d\n%s", code, out)
	}
	missing = scaled(1.0)
	delete(missing[1].Issue, "chain_kpps")
	if code, out := compareStatus(t, base, missing); code != 2 {
		t.Errorf("issue metric on one side only: exit %d\n%s", code, out)
	}
	if code, out := compareStatus(t, base, append(scaled(1.0), e2eRun("admit_scale", 1, 5, 0))); code != 2 {
		t.Errorf("workload on one side only: exit %d\n%s", code, out)
	}
	other := scaled(1.0)
	other[0].Params = map[string]any{"window": 64.0}
	if code, out := compareStatus(t, base, other); code != 2 || !strings.Contains(out, "parameters differ") {
		t.Errorf("different workload parameters: exit %d\n%s", code, out)
	}
	reseeded := scaled(1.0)
	reseeded[2].Seed = 9
	if code, out := compareStatus(t, base, reseeded); code != 2 {
		t.Errorf("different seeds: exit %d\n%s", code, out)
	}
}

// TestOutAppendsAndCompares writes two result files through -out and
// reads them back through -compare: an A/A pair of a real workload.
func TestOutAppendsAndCompares(t *testing.T) {
	dir := t.TempDir()
	files := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, f := range files {
		for i := 0; i < 2; i++ {
			runSmoke(t, "admit_scale", false, "-out", f)
		}
	}
	a, err := readResults(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 2 || a.Runs[0].Fingerprint.NProc == 0 || a.Runs[0].Fingerprint.GoVersion == "" || a.Runs[0].Params["par_workers"] == nil {
		t.Fatalf("result file: %+v", a.Runs)
	}
	var stdout, stderr bytes.Buffer
	// Smoke-size runs are far too short for a verdict to mean anything;
	// what is pinned here is that the files are accepted and every
	// end-to-end metric gets a row.
	if code := run([]string{"-benchmark", manifestPath, "-compare", files[0], files[1]}, &stdout, &stderr); code == 2 {
		t.Fatalf("compare refused an A/A pair:\n%s%s", stdout.String(), stderr.String())
	}
	for _, name := range []string{"setup_s", "ops_per_s", "op_mean_us", "op2_mean_us", "play_events_per_s", "play_par_events_per_s", "failed_share"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("compare output has no %s row:\n%s", name, stdout.String())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "a.json")); err != nil {
		t.Fatal(err)
	}
}
