package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"escape/internal/core"
	"escape/internal/sg"
)

// e9Topo builds the multi-tenant topology for N concurrent services:
// two switches, four EEs (two per switch) sized to host every chain, and
// one SAP pair per service so chains do not share ingress ports.
func e9Topo(n, chainLen int) core.TopoSpec {
	// monitor NFs default to 0.1 CPU / 32 MB; spread over 4 EEs with
	// generous headroom so admission never rejects.
	cpu := float64(n*chainLen)*0.1/4 + 1
	mem := n*chainLen*32/4 + 256
	hosts := map[string]string{}
	for i := 0; i < n; i++ {
		hosts[fmt.Sprintf("h%da", i)] = "s1"
		hosts[fmt.Sprintf("h%db", i)] = "s2"
	}
	return core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    hosts,
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: cpu, Mem: mem},
			"ee2": {Switch: "s1", CPU: cpu, Mem: mem},
			"ee3": {Switch: "s2", CPU: cpu, Mem: mem},
			"ee4": {Switch: "s2", CPU: cpu, Mem: mem},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}},
	}
}

// e9Graph builds tenant i's chain between its own SAP pair.
func e9Graph(i, chainLen int) *sg.Graph {
	types := make([]string, chainLen)
	for j := range types {
		types[j] = "monitor"
	}
	g := sg.NewChainGraph(fmt.Sprintf("e9-svc%d", i), types...)
	g.SAPs[0].ID = fmt.Sprintf("h%da", i)
	g.SAPs[1].ID = fmt.Sprintf("h%db", i)
	g.Links[0].Src.Node = g.SAPs[0].ID
	g.Links[len(g.Links)-1].Dst.Node = g.SAPs[1].ID
	return g
}

// percentile returns the p-th percentile (0–100) of sorted durations
// using the nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// E9DeployThroughput measures the orchestration control plane under
// concurrent load: N goroutines each deploy one chain at once. Reported
// per concurrency: total wall time, deploy throughput, per-deploy latency
// percentiles, and concurrent-undeploy wall time.
func E9DeployThroughput(concurrencies []int, chainLen int) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("Deploy throughput vs concurrency (chains of %d NFs)", chainLen),
		Columns: []string{"conc", "total_ms", "svc_per_s", "p50_ms", "p95_ms", "undeploy_ms"},
		Notes: []string{
			"realization drives every EE a service touches at once, each EE's NFs in order on its one NETCONF session",
			"steering is one batched InstallPaths push per service",
			"admission is optimistic (lock-free map, validate-and-commit): no run may oversubscribe the view",
		},
	}
	for _, n := range concurrencies {
		if err := e9Run(t, n, chainLen); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// e9Run measures one concurrency on a fresh environment.
func e9Run(t *Table, n, chainLen int) error {
	env, err := core.StartEnvironment(e9Topo(n, chainLen))
	if err != nil {
		return err
	}
	defer env.Close()

	graphs := make([]*sg.Graph, n)
	for i := range graphs {
		graphs[i] = e9Graph(i, chainLen)
	}

	latencies := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, g := range graphs {
		wg.Add(1)
		go func(i int, g *sg.Graph) {
			defer wg.Done()
			t0 := time.Now()
			_, err := env.Orch.Deploy(g)
			latencies[i] = time.Since(t0)
			errs[i] = err
		}(i, g)
	}
	wg.Wait()
	total := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("experiments: E9 deploy %d (conc=%d): %w", i, n, err)
		}
	}
	for _, g := range graphs {
		if svc := env.Orch.Service(g.Name); svc == nil || svc.State() != core.StateRunning {
			return fmt.Errorf("experiments: E9 service %q not Running after deploy", g.Name)
		}
	}

	tu := time.Now()
	for i, g := range graphs {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			errs[i] = env.Orch.Undeploy(name)
		}(i, g.Name)
	}
	wg.Wait()
	undeploy := time.Since(tu)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("experiments: E9 undeploy %d: %w", i, err)
		}
	}
	if env.Steering.ActivePaths() != 0 {
		return fmt.Errorf("experiments: E9 leaked %d steering paths", env.Steering.ActivePaths())
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	t.AddRow(fmt.Sprint(n),
		ms(total),
		fmt.Sprintf("%.1f", float64(n)/total.Seconds()),
		ms(percentile(latencies, 50)),
		ms(percentile(latencies, 95)),
		ms(undeploy))
	return nil
}
