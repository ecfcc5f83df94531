package resilience

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"escape/internal/core"
	"escape/internal/netem"
)

// Chaos soak: a randomized, seeded fault schedule — EE crashes and
// restarts, link flaps on the redundant trunks, concurrent deploys and
// undeploys — against the self-healing stack, checked at the end against
// hard invariants: every base intent runs again, the system still
// deploys and forwards traffic, no orphaned steering paths or ports, the
// ResourceView exactly restored after undeploying everything, and (under
// -race, as CI runs it) no data races or deadlocks. The seed comes from ESCAPE_CHAOS_SEED when set and
// is logged on failure so any run reproduces.

// chaosSeed resolves the schedule seed (env override for reproduction).
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("ESCAPE_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ESCAPE_CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return 7
}

// chaosSpec: a switch triangle with two EEs per switch, so a heal
// always has somewhere to go while at most two EEs are down.
func chaosSpec() core.TopoSpec {
	spec := core.TopoSpec{
		Switches: []string{"s1", "s2", "s3"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs:      map[string]core.EESpec{},
		Trunks: []core.TrunkSpec{
			{A: "s1", B: "s2"}, {A: "s1", B: "s3"}, {A: "s2", B: "s3"},
		},
	}
	for i, sw := range []string{"s1", "s1", "s2", "s2", "s3", "s3"} {
		spec.EEs[fmt.Sprintf("ee%d", i+1)] = core.EESpec{Switch: sw, CPU: 8, Mem: 4096}
	}
	return spec
}

func TestChaosSoak(t *testing.T) {
	seed := chaosSeed(t)
	defer func() {
		if t.Failed() {
			t.Logf("reproduce with: ESCAPE_CHAOS_SEED=%d go test -run TestChaosSoak ./internal/resilience", seed)
		}
	}()
	rng := rand.New(rand.NewSource(seed))

	env, _, rec := startResilient(t, chaosSpec())
	ees := []string{"ee1", "ee2", "ee3", "ee4", "ee5", "ee6"}
	trunks := [][2]string{{"s1", "s2"}, {"s1", "s3"}, {"s2", "s3"}}

	// A base population of intents the schedule shoots at; the churn
	// beside them is deployed directly, so nothing heals it.
	const baseServices = 3
	var base []string
	for i := 0; i < baseServices; i++ {
		id, _ := runIntent(t, env, rec, chainGraph(fmt.Sprintf("base-%d", i), "monitor", "monitor"))
		base = append(base, id)
	}

	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	crashed := map[string]bool{}
	failedLinks := map[int]bool{}
	var churnWG sync.WaitGroup
	churn := 0
	for round := 0; round < rounds; round++ {
		switch rng.Intn(4) {
		case 0: // crash a random EE (at most two down at once)
			if len(crashed) >= 2 {
				break
			}
			ee := ees[rng.Intn(len(ees))]
			if crashed[ee] {
				break
			}
			crashed[ee] = true
			env.Net.Node(ee).(*netem.EE).Crash()
		case 1: // restart a crashed EE
			for ee := range crashed {
				delete(crashed, ee)
				env.Net.Node(ee).(*netem.EE).Restart()
				break
			}
		case 2: // flap a trunk (at most one down, so a detour exists)
			i := rng.Intn(len(trunks))
			if failedLinks[i] {
				env.Net.FindLink(trunks[i][0], trunks[i][1]).Heal()
				delete(failedLinks, i)
			} else if len(failedLinks) == 0 {
				env.Net.FindLink(trunks[i][0], trunks[i][1]).Fail()
				failedLinks[i] = true
			}
		case 3: // concurrent deploy/undeploy churn
			name := fmt.Sprintf("churn-%d", churn)
			churn++
			churnWG.Add(1)
			go func(name string, pause time.Duration) {
				defer churnWG.Done()
				if _, err := env.Orch.Deploy(chainGraph(name, "monitor")); err != nil {
					return // admission may rightly fail while EEs are down
				}
				time.Sleep(pause)
				_ = env.Orch.Undeploy(name)
			}(name, time.Duration(rng.Intn(10))*time.Millisecond)
		}
		time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
	}

	// Heal every injected fault, wait out the in-flight churn, quiesce.
	for ee := range crashed {
		env.Net.Node(ee).(*netem.EE).Restart()
	}
	for i := range failedLinks {
		env.Net.FindLink(trunks[i][0], trunks[i][1]).Heal()
	}
	churnWG.Wait()
	// Invariant: the detector observes every recovery and lifts every
	// mask, and every base intent runs again — healed through the
	// schedule, or redeployed after a heal that gave up.
	settled := func() bool {
		for _, ee := range ees {
			if env.View.ExcludedEE(ee) {
				return false
			}
		}
		for _, tr := range trunks {
			if env.View.ExcludedLink(tr[0], tr[1]) {
				return false
			}
		}
		for _, id := range base {
			if !rec.Backend.Running(id) || rec.LastError(id) != "" {
				return false
			}
		}
		return true
	}
	if !rec.Await(20*time.Second, settled) {
		for _, id := range base {
			t.Logf("%s: running=%v last error %q", id, rec.Backend.Running(id), rec.LastError(id))
		}
		t.Fatal("masks not lifted or base intents not running after all faults healed")
	}
	t.Logf("chaos soak: %d heals, %d heal failures", rec.Metrics.Heals.Load(), rec.Metrics.HealFailures.Load())

	// Invariant: the healed substrate still deploys fresh chains and
	// forwards traffic end to end.
	if _, err := env.Orch.Deploy(chainGraph("probe", "monitor")); err != nil {
		t.Fatalf("post-chaos deploy: %v", err)
	}
	if !pump(t, env, "post-chaos", 10*time.Second) {
		t.Fatal("no end-to-end traffic after the soak")
	}

	// Invariant: undeploying everything leaves zero steering paths and an
	// exactly-restored resource view (no orphaned flows, ports or
	// reservations). The reconciler stops first, or it would redeploy the
	// base intents.
	rec.Stop()
	for _, name := range env.Orch.Services() {
		if err := env.Orch.Undeploy(name); err != nil {
			t.Errorf("drain: %v", err)
		}
	}
	if left := env.Orch.Services(); len(left) > 0 {
		t.Errorf("services left after the drain: %v", left)
	}
	if got := env.Steering.ActivePaths(); got != 0 {
		t.Errorf("orphaned steering paths after drain: %d", got)
	}
	for _, ee := range ees {
		if cpu, mem := env.View.Committed(ee); cpu != 0 || mem != 0 {
			t.Errorf("%s not restored: %v cpu / %d mem still committed", ee, cpu, mem)
		}
	}
}
