// Command bench is the repository's benchmark: it assembles ESCAPE from
// its public pieces the way cmd/escaped, core.StartEnvironment and
// experiments.E14ScaleSim do, drives one of four named workloads, checks
// the outputs and prints every metric by name with its unit. A separate
// traced run (-trace 1) records in-memory spans around the calls the
// benchmark makes into each layer and derives the per-layer table from
// them. README.md in this directory says what each workload and metric is
// for.
//
// All load comes from this one process over loopback sockets and
// in-process links; no real NIC or wire is crossed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart is as close to process start as Go code gets; the first
// set-up of a run is timed from here.
var processStart = time.Now()

type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, the same four on every
// workload (README.md has what "operation" and "second operation" mean on
// each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_mean_us", "us"},
	{"op2_mean_us", "us"},
}

// issueMetric is one of ISSUE 12's end-to-end metrics. Each belongs to
// some workloads only, so the manifest — whose metrics every run of every
// workload must print — cannot hold it; an untraced run records the ones
// of its workload in its result file and -compare judges them against
// these bounds, the issue's.
type issueMetric struct {
	metricDef
	HigherBetter bool
	Bound        float64
	Workloads    []string
}

var (
	churnOnly  = []string{"deploy_churn"}
	admitOnly  = []string{"admit_scale"}
	bothChains = []string{"chain_64B", "chains_mixed_1400B"}
)

var issueMetrics = []issueMetric{
	{metricDef{"deploy_p50_ms", "ms"}, false, 0.05, churnOnly},
	{metricDef{"deploy_p99_ms", "ms"}, false, 0.15, churnOnly},
	{metricDef{"intent_to_packet_p50_ms", "ms"}, false, 0.05, churnOnly},
	{metricDef{"undeploy_p50_ms", "ms"}, false, 0.10, churnOnly},
	{metricDef{"cycles_per_s", "1/s"}, true, 0.05, churnOnly},
	{metricDef{"play_events_per_s", "1/s"}, true, 0.12, admitOnly},
	{metricDef{"play_par_events_per_s", "1/s"}, true, 0.12, admitOnly},
	{metricDef{"chain_kpps", "kpps"}, true, 0.10, bothChains},
	{metricDef{"chain_rtt_p50_us", "us"}, false, 0.05, bothChains},
	{metricDef{"chain_rtt_p99_us", "us"}, false, 0.10, []string{"chain_64B"}},
}

// issueMetricsOf lists the issue's metrics of one workload.
func issueMetricsOf(workload string) []issueMetric {
	var out []issueMetric
	for _, d := range issueMetrics {
		for _, w := range d.Workloads {
			if w == workload {
				out = append(out, d)
			}
		}
	}
	return out
}

// perLayer are the metrics of a traced run. Times come from the isolated
// layer drivers in probes.go, which run on every workload; what the
// workload's own spans show is reported as shares and counts, which are 0
// on a workload that bypasses the layer.
var perLayer = []metricDef{
	// isolated layer drivers (probes.go)
	{"api.parse_us", "us"},
	{"api.wal_append_us", "us"},
	{"api.wal_forget_us", "us"},
	{"vnfagent.rpc_rtt_us", "us"},
	{"vnfagent.vnf_up_us", "us"},
	{"vnfagent.vnf_down_us", "us"},
	{"pox.barrier_rtt_us", "us"},
	{"click.vnf_idle_rtt_us", "us"},
	{"click.vnf_ns_frame", "ns"},
	{"click.firewall_ns_frame", "ns"},
	{"click.dpi_ns_frame", "ns"},
	{"ofswitch.fwd_ns_frame", "ns"},
	{"ofswitch.lookup_ns", "ns"},
	{"netem.link_ns_frame", "ns"},
	{"pkt.decode_ns", "ns"},
	{"sg.chain_build_us", "us"},
	// deploy_churn spans, as shares of the untraced deploy / undeploy p50
	{"api.accept_share", "share"},
	{"api.queue_wait_share", "share"},
	{"core.map_share", "share"},
	{"core.realize_share", "share"},
	{"core.steer_share", "share"},
	{"api.wait_poll_share", "share"},
	{"bench.deploy_residual_share", "share"},
	{"api.delete_share", "share"},
	{"core.undeploy_share", "share"},
	{"api.gone_lag_share", "share"},
	{"bench.intent_to_packet_ratio", "ratio"},
	{"bench.undeploy_ratio", "ratio"},
	{"steering.flowmods_per_deploy", "count"},
	{"steering.rules_leaked", "count"},
	// admit_scale spans, as shares of the traced loop's wall
	{"sg.chain_build_share", "share"},
	{"core.admit_ok_share", "share"},
	{"core.admit_reject_share", "share"},
	{"core.release_share", "share"},
	{"core.heal_share", "share"},
	{"core.mask_share", "share"},
	{"flowsim.start_flow_share", "share"},
	{"flowsim.stop_flow_share", "share"},
	{"flowsim.advance_share", "share"},
	{"flowsim.fault_share", "share"},
	{"substrate.player_residual_share", "share"},
	{"substrate.par_speedup", "ratio"},
	{"core.pathcache_hit_share", "share"},
	{"core.admit_conflicts", "count"},
	{"core.reject_share", "share"},
	{"core.rerouted", "count"},
	{"flowsim.max_util", "ratio"},
	{"flowsim.delivered_pct", "%"},
	// chain workloads
	{"bench.rtt_residual_share", "share"},
	{"bench.gen_idle_share", "share"},
	{"bench.gen_send_share", "share"},
	{"bench.chain_fairness", "ratio"},
	{"ofswitch.table_len", "count"},
	// every workload
	{"bench.op_p50_us", "us"},
	{"bench.op_p99_us", "us"},
	{"click.queue_drops", "count"},
	{"netem.link_drops", "count"},
	{"ofswitch.slowpath_share", "share"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"bench.trace_overhead_share", "share"},
}

// runConfig is one invocation's input.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	datadir  string
	inject   bool // test hook: make every deploy_churn probe fail
}

// passSeconds is how long one measured pass lasts: a traced run splits
// its time between an untraced pass, the traced pass and the isolated
// layer drivers.
func (c runConfig) passSeconds() float64 {
	if c.trace {
		return c.seconds / 3
	}
	return c.seconds
}

// secs converts seconds to a Duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// timeSetups runs build n times and returns the median time it took, in
// seconds. The first is timed from process start. build tears down what
// the previous call built; the last one's result is what gets measured.
func timeSetups(n int, build func() error) (float64, error) {
	var setups sample
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := build(); err != nil {
			return 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups.median(), nil
}

// outcome is what a workload hands back: counts, metric values by name,
// the issue's metrics of the workload, further named values for the
// human-readable listing, the parameters that fix its inputs (compared by
// -compare) and, when traced, the spans.
type outcome struct {
	attempted int
	failed    int
	checks    []string // violated correctness checks, empty when all hold
	values    map[string]float64
	issue     map[string]float64
	extra     []extraValue
	params    map[string]any
	tr        *tracer
}

type extraValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setRuntime records what the whole process allocated and how long the
// collector paused it over a measured phase of ops operations.
func (o *outcome) setRuntime(allocs, bytes float64, gcPause time.Duration, ops int) {
	o.set("runtime.allocs_per_op", share(allocs, float64(ops)))
	o.set("runtime.bytes_per_op", share(bytes, float64(ops)))
	o.set("runtime.gc_pause_ms", gcPause.Seconds()*1e3)
	o.set("runtime.peak_rss_mb", peakRSSMB())
}

func (o *outcome) note(name string, v float64, unit string) {
	o.extra = append(o.extra, extraValue{name, v, unit})
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, issue: map[string]float64{}, params: map[string]any{}}
}

type workloadFunc func(cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"deploy_churn":       runDeployChurn,
	"admit_scale":        runAdmitScale,
	"chain_64B":          func(cfg runConfig) (*outcome, error) { return runChain(cfg, chain64B) },
	"chains_mixed_1400B": func(cfg runConfig) (*outcome, error) { return runChain(cfg, chainsMixed1400B) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one entry of the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("one of %v", workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (reaches input generation only)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&cfg.datadir, "datadir", ".bench_build/data", "directory the WAL under test is created in")
	out := fs.String("out", "", "append this run's record to a result file (read by -compare)")
	spans := fs.String("spans", "", "traced run: write the spans and the table derived from them here")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	manifest := fs.String("benchmark", "BENCHMARK.json", "the benchmark manifest (bounds for -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(*manifest, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg.trace = trace != 0
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %v)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(cfg.datadir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	o, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}

	issue := map[string]metricValue{}
	for _, d := range issueMetricsOf(cfg.workload) {
		v, ok := o.issue[d.Name]
		o.check(ok, "%s was not measured", d.Name)
		if ok {
			issue[d.Name] = metricValue{v, d.Unit}
		}
	}
	if len(o.checks) > 0 && o.failed == 0 {
		o.failed = len(o.checks) // a violated check is a failed operation, never a silent pass
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   o.failed == 0 && len(o.checks) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	fp := takeFingerprint(cfg)
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v  (%s)\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, fp.Links)
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{o.values[d.Name], d.Unit}
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", d.Name, o.values[d.Name], d.Unit)
	}
	for _, d := range issueMetricsOf(cfg.workload) {
		if v, ok := issue[d.Name]; ok {
			fmt.Fprintf(stdout, "  %-32s %16.6g %s  [bound %g, judged by -compare]\n", d.Name, v.Value, d.Unit, d.Bound)
		}
	}
	o.note("peak_rss_mb", peakRSSMB(), "MB")
	for _, e := range o.extra {
		fmt.Fprintf(stdout, "  %-32s %16.6g %s\n", e.Name, e.Value, e.Unit)
	}
	fmt.Fprintf(stdout, "%-34s %16.6g share (%d of %d)\n", "failed_share", share(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	for _, c := range o.checks {
		fmt.Fprintln(stdout, "CHECK FAILED:", c)
	}

	if *out != "" {
		rec := runRecord{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			Params: o.params, Fingerprint: fp,
			Correct: line.Correct, Attempted: o.attempted, Failed: o.failed,
			Checks: o.checks, Metrics: line.Metrics, Issue: issue, Extra: o.extra,
		}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *spans != "" && o.tr != nil {
		layers := map[string]float64{}
		for _, d := range perLayer {
			layers[d.Name] = o.values[d.Name]
		}
		if err := writeSpans(*spans, spanFile{Workload: cfg.workload, Seed: cfg.seed, Layers: layers}, o.tr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return 0
}

// nproc is the load generator's budget: at most this many client
// goroutines, and the worker count of the parallel scenario player.
func nproc() int { return runtime.NumCPU() }
