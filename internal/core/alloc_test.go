package core

import (
	"fmt"
	"runtime"
	"testing"
)

// TestDeployCycleAllocBudget pins what one deploy plus undeploy of a
// three-NF chain allocates, across every layer it crosses in the
// process: mapping, the NETCONF flights to the agents, the EE's VNF
// starts, steering and the release. A layer that went back to rebuilding
// per deploy what it can reuse — a Click router parsed from text,
// pre-allocated rings, per-message read buffers — blows the budget.
func TestDeployCycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env := startEnv(t, demoSpec())
	cycle := func(i int) {
		name := fmt.Sprintf("alloc%d", i)
		if _, err := env.Orch.Deploy(sapGraph(name, "monitor", "firewall", "dpi")); err != nil {
			t.Fatal(err)
		}
		if err := env.Orch.Undeploy(name); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 20 { // warm the sessions, pools and caches up
		cycle(i)
	}
	const cycles = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range cycles {
		cycle(20 + i)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	allocs := float64(after.Mallocs-before.Mallocs) / cycles
	t.Logf("a deploy cycle allocates %.0f B in %.0f allocations", bytes, allocs)
	if bytes > 220<<10 {
		t.Errorf("a deploy cycle allocates %.0f B, budget %d", bytes, 220<<10)
	}
	if allocs > 1800 {
		t.Errorf("a deploy cycle makes %.0f allocations, budget 1800", allocs)
	}
}
