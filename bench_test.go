// Package escape's root benchmarks regenerate every experiment of
// EXPERIMENTS.md (one benchmark per table/figure, E1–E14). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment harness and reports the headline
// metric via b.ReportMetric; the full tables print with -v or via
// cmd/escape-bench.
package escape

import (
	"io"
	"os"
	"strconv"
	"testing"

	"escape/internal/experiments"
)

// tableOut controls whether benchmark runs print the full tables
// (ESCAPE_BENCH_TABLES=1).
func tableOut() io.Writer {
	if os.Getenv("ESCAPE_BENCH_TABLES") == "1" {
		return os.Stdout
	}
	return io.Discard
}

// lastFloat extracts a numeric cell from the final row of a table.
func lastFloat(t *experiments.Table, col int) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	row := t.Rows[len(t.Rows)-1]
	if col >= len(row) {
		return 0
	}
	v, _ := strconv.ParseFloat(row[col], 64)
	return v
}

// BenchmarkE1ArchitectureRoundTrip runs the full three-layer round trip
// (Fig. 1): infrastructure up, service request, orchestration,
// data plane, management, teardown.
func BenchmarkE1ArchitectureRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E1Architecture()
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
	}
}

// BenchmarkE2DemoWorkflow runs the five demo steps with the compression
// chain.
func BenchmarkE2DemoWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E2Demo()
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
	}
}

// BenchmarkE3EmulationScale measures topology bring-up at increasing node
// counts ("scaling up to hundreds of nodes").
func BenchmarkE3EmulationScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E3Scale([]int{10, 50, 100, 200})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
		b.ReportMetric(lastFloat(tbl, 5), "us/node@200sw")
	}
}

// BenchmarkE4MappingAlgorithms compares greedy/ksp/backtrack/random
// mapping on a ring substrate.
func BenchmarkE4MappingAlgorithms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E4Mapping(16, 3, 30)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
	}
}

// BenchmarkE5SteeringSetup measures chain-path installation latency
// across path lengths, steering modes and control transports.
func BenchmarkE5SteeringSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E5Steering([]int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
	}
}

// BenchmarkE6ClickDataPlane measures packet throughput through chains of
// Click VNFs; the reported metric is the table's final row, the longest
// chain at the largest frame size.
func BenchmarkE6ClickDataPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E6ClickDataPlane([]int{1, 2, 4, 8}, []int{64, 1500}, 2000)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
		b.ReportMetric(lastFloat(tbl, 2), "kpps@8vnf")
	}
}

// BenchmarkE7NETCONFControl measures vnf_starter RPC latency against
// hosted-VNF count.
func BenchmarkE7NETCONFControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E7NETCONF([]int{1, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
	}
}

// BenchmarkE8ServiceCreation measures end-to-end deploy time against
// chain length with per-phase breakdown.
func BenchmarkE8ServiceCreation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E8ServiceCreation([]int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
	}
}

// BenchmarkE9DeployThroughput measures concurrent service deployment
// under sequential and parallel VNF realization.
func BenchmarkE9DeployThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E9DeployThroughput([]int{1, 4, 8}, 4)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
		b.ReportMetric(lastFloat(tbl, tbl.Col("svc_per_s")), "svc/s@8conc-par")
	}
}

// BenchmarkE10MultiDomain measures hierarchical vs flat orchestration
// across 3 domains: concurrent multi-tenant deploys, gateway-stitched
// steering verified by live traffic and flow counters per cell.
func BenchmarkE10MultiDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E10MultiDomain(3, 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
		b.ReportMetric(lastFloat(tbl, 3), "svc/s@3span-flat")
	}
}

// BenchmarkE11SelfHealing kills EEs and a trunk under live chain
// traffic and measures failure detection latency, healing latency
// (delta remap + migration + atomic re-steer) and the loss window, flat
// vs hierarchical (domain-local healing).
func BenchmarkE11SelfHealing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E11SelfHealing([]int{1, 2}, 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
		b.ReportMetric(lastFloat(tbl, 4), "heal-p50-ms@link-hier")
	}
}

// BenchmarkE12Admission measures the admission hot path on fat-tree
// views with cold and cached path routing.
func BenchmarkE12Admission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E12Admission([]int{4, 8}, []int{16}, 3)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
		b.ReportMetric(lastFloat(tbl, tbl.Col("adm_per_s")), "adm/s@8k-cached")
	}
}

func BenchmarkE13ControlPlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E13ControlPlane(2, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
		// Row 1 is the wal-replay phase; column 6 its recovery time.
		if len(tbl.Rows) > 1 {
			v, _ := strconv.ParseFloat(tbl.Rows[1][6], 64)
			b.ReportMetric(v, "replay-ms")
		}
	}
}

// BenchmarkE14FlowsimScale runs the flow-level substrate experiment at a
// mid-size grid: admission, faults and healing for hundreds of services
// over hundreds of switches, entirely in virtual time.
func BenchmarkE14FlowsimScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E14ScaleSim(experiments.E14Config{
			Regions: 4, SwitchesPerRegion: 64, Services: 200, Faults: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		tbl.Render(tableOut())
		// Column 6 is admitted services of the last (pareto) cell.
		b.ReportMetric(lastFloat(tbl, 6), "admitted")
	}
}
