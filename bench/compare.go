package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// manifest is the part of BENCHMARK.json -compare needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runSet is one side's runs of one workload in one mode.
type runSet struct {
	runs []runRecord
}

// values collects one metric over the runs; from picks the record's map
// that holds it. It reports false when any run lacks the metric.
func (s runSet) values(metric string, from func(runRecord) map[string]metricValue) (sample, bool) {
	var out sample
	for _, r := range s.runs {
		v, ok := from(r)[metric]
		if !ok {
			return nil, false
		}
		out = append(out, v.Value)
	}
	return out, true
}

func manifestMetrics(r runRecord) map[string]metricValue { return r.Metrics }
func issueValues(r runRecord) map[string]metricValue     { return r.Issue }

func (s runSet) failedShare() float64 {
	att, failed := 0, 0
	for _, r := range s.runs {
		att += r.Attempted
		failed += r.Failed
	}
	return share(float64(failed), float64(att))
}

func (s runSet) seeds() []int64 {
	out := make([]int64, len(s.runs))
	for i, r := range s.runs { // groupRuns sorted them
		out[i] = r.Seed
	}
	return out
}

type setKey struct {
	workload string
	trace    bool
}

func groupRuns(f *resultFile) map[setKey]runSet {
	out := map[setKey]runSet{}
	for _, r := range f.Runs {
		k := setKey{r.Workload, r.Trace}
		s := out[k]
		s.runs = append(s.runs, r)
		out[k] = s
	}
	for _, s := range out { // by seed, so that the two sides' runs pair up
		sort.SliceStable(s.runs, func(i, j int) bool { return s.runs[i].Seed < s.runs[j].Seed })
	}
	return out
}

// verdict judges metric values b against a (the base); a[i] and b[i] are
// runs of the same seed. Unresolved: a side has fewer than two runs, or
// either side's quartile spread is wider than the bound — unless every run
// of b reads better than every run of a, which rules a regression out.
// Worse: b's median is worse than a's by more than the bound. Better: b
// wins at least nine tenths of the seed pairs (ties counting for neither)
// and its median is better by more than a's own quartile spread. Otherwise
// unchanged.
func verdict(a, b sample, higherBetter bool, bound float64) string {
	ma, mb := a.median(), b.median()
	if len(a) < 2 || len(b) < 2 || ma == 0 {
		return "unresolved"
	}
	beats := func(y, x float64) bool { return (higherBetter && y > x) || (!higherBetter && y < x) }
	gain := (mb - ma) / ma // positive = b better, once the sign is fixed
	if !higherBetter {
		gain = -gain
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && beats(y, x)
		}
	}
	wins, decided := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			decided++
			if beats(b[i], a[i]) {
				wins++
			}
		}
	}
	switch {
	case !allBetter && (a.quartileSpread() > bound || b.quartileSpread() > bound):
		return "unresolved"
	case gain < -bound:
		return "worse"
	case 10*wins >= 9*decided && decided > 0 && gain > a.quartileSpread():
		return "better"
	}
	return "unchanged"
}

// compareFiles prints, per workload and metric, both medians, the ratio
// with its base, the bound and a verdict. It returns non-zero on any
// worse verdict, on a higher failed share, and on any mismatch between
// the two files (a workload, mode, metric, seed list or workload
// parameter present or different on one side only).
func compareFiles(manifestPath, pathA, pathB string, stdout, stderr io.Writer) int {
	m, err := readManifest(manifestPath)
	var fa, fb *resultFile
	if err == nil {
		fa, err = readResults(pathA)
	}
	if err == nil {
		fb, err = readResults(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	return compareResults(m, fa, fb, pathA, stdout, stderr)
}

func compareResults(m *manifest, fa, fb *resultFile, base string, stdout, stderr io.Writer) int {
	ga, gb := groupRuns(fa), groupRuns(fb)
	keys := map[setKey]bool{}
	for k := range ga {
		keys[k] = true
	}
	for k := range gb {
		keys[k] = true
	}
	status := 0
	bad := func(format string, args ...any) {
		fmt.Fprintf(stderr, "bench: compare: "+format+"\n", args...)
		status = 2
	}
	for _, w := range m.Workloads {
		for _, trace := range []bool{false, true} {
			k := setKey{w.Name, trace}
			if !keys[k] {
				continue
			}
			delete(keys, k)
			a, b := ga[k], gb[k]
			if len(a.runs) == 0 || len(b.runs) == 0 {
				bad("%s trace=%v has runs on one side only", w.Name, trace)
				continue
			}
			if !reflect.DeepEqual(a.seeds(), b.seeds()) {
				bad("%s trace=%v: seeds differ: %v vs %v", w.Name, trace, a.seeds(), b.seeds())
				continue
			}
			if !sameParams(a, b) {
				bad("%s trace=%v: workload parameters differ", w.Name, trace)
				continue
			}
			fmt.Fprintf(stdout, "%s  trace=%v  runs %d vs %d  (ratios are b ÷ a, base %s)\n", w.Name, trace, len(a.runs), len(b.runs), base)
			if trace {
				for _, d := range m.PerLayer {
					va, okA := a.values(d.Name, manifestMetrics)
					vb, okB := b.values(d.Name, manifestMetrics)
					if !okA || !okB {
						bad("%s: per-layer metric %s missing on one side", w.Name, d.Name)
						continue
					}
					fmt.Fprintf(stdout, "  %-34s %14.6g %14.6g %-6s ratio %.3f\n", d.Name, va.median(), vb.median(), d.Unit, share(vb.median(), va.median()))
				}
			} else {
				judge := func(name, unit string, higherBetter bool, bound float64, from func(runRecord) map[string]metricValue) {
					va, okA := a.values(name, from)
					vb, okB := b.values(name, from)
					if !okA || !okB {
						bad("%s: metric %s missing from a run", w.Name, name)
						return
					}
					v := verdict(va, vb, higherBetter, bound)
					fmt.Fprintf(stdout, "  %-24s %14.6g %14.6g %-4s ratio %.3f  spread %.3f / %.3f  bound %.2f  %s\n",
						name, va.median(), vb.median(), unit, share(vb.median(), va.median()),
						va.quartileSpread(), vb.quartileSpread(), bound, v)
					if v == "worse" && status == 0 {
						status = 1
					}
				}
				for _, d := range m.EndToEnd {
					judge(d.Name, d.Unit, d.Better == "higher", d.Bound, manifestMetrics)
				}
				for _, d := range issueMetricsOf(w.Name) { // the issue's names, with the issue's bounds
					judge(d.Name, d.Unit, d.HigherBetter, d.Bound, issueValues)
				}
			}
			fsa, fsb := a.failedShare(), b.failedShare()
			fmt.Fprintf(stdout, "  %-12s %14.6g %14.6g share\n", "failed_share", fsa, fsb)
			if fsb > fsa && status == 0 {
				status = 1
			}
		}
	}
	for k := range keys {
		bad("workload %q is not in the manifest", k.workload)
	}
	return status
}

// sameParams reports whether every run on both sides fixed the same
// inputs: run length and workload parameters.
func sameParams(a, b runSet) bool {
	norm := func(r runRecord) string {
		data, _ := json.Marshal(struct {
			S float64
			P map[string]any
		}{r.Seconds, r.Params})
		return string(data)
	}
	want := norm(a.runs[0])
	for _, r := range append(append([]runRecord(nil), a.runs...), b.runs...) {
		if norm(r) != want {
			return false
		}
	}
	return true
}
