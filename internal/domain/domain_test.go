package domain

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"escape/internal/core"
	"escape/internal/pkt"
	"escape/internal/sg"
)

// testSpec builds a linear multi-domain topology: domain di has switches
// di.s1—di.s2, hosts di.a*@s1 and di.b*@s2, EEs di.e1@s1 and di.e2@s2,
// and gateway trunks di.s2—d(i+1).s1.
func testSpec(domains, hostPairs int, eeCPU float64, eeMem int) Spec {
	var spec Spec
	for i := 0; i < domains; i++ {
		d := fmt.Sprintf("d%d", i)
		ds := DomainSpec{
			Name:     d,
			Switches: []string{d + ".s1", d + ".s2"},
			Hosts:    map[string]string{},
			EEs: map[string]core.EESpec{
				d + ".e1": {Switch: d + ".s1", CPU: eeCPU, Mem: eeMem},
				d + ".e2": {Switch: d + ".s2", CPU: eeCPU, Mem: eeMem},
			},
			Trunks: []core.TrunkSpec{{A: d + ".s1", B: d + ".s2"}},
		}
		for j := 0; j < hostPairs; j++ {
			ds.Hosts[fmt.Sprintf("%s.a%d", d, j)] = d + ".s1"
			ds.Hosts[fmt.Sprintf("%s.b%d", d, j)] = d + ".s2"
		}
		spec.Domains = append(spec.Domains, ds)
	}
	for i := 0; i+1 < domains; i++ {
		spec.Inter = append(spec.Inter, InterLink{
			ADomain: fmt.Sprintf("d%d", i), ASwitch: fmt.Sprintf("d%d.s2", i),
			BDomain: fmt.Sprintf("d%d", i+1), BSwitch: fmt.Sprintf("d%d.s1", i+1),
		})
	}
	return spec
}

// spanGraph builds chain j of nfs NFs from d0's a-host to the b-host of
// the span's last domain.
func spanGraph(name string, span, j, nfs int) *sg.Graph {
	types := make([]string, nfs)
	for i := range types {
		types[i] = "monitor"
	}
	g := sg.NewChainGraph(name, types...)
	g.SAPs[0].ID = fmt.Sprintf("d0.a%d", j)
	g.SAPs[1].ID = fmt.Sprintf("d%d.b%d", span-1, j)
	g.Links[0].Src.Node = g.SAPs[0].ID
	g.Links[len(g.Links)-1].Dst.Node = g.SAPs[1].ID
	return g
}

// pump sends a UDP frame from src until dst receives the payload.
func pump(t *testing.T, env *Environment, src, dst, payload string) {
	t.Helper()
	hs, hd := env.Host(src), env.Host(dst)
	if hs == nil || hd == nil {
		t.Fatalf("hosts %s/%s missing", src, dst)
	}
	hd.SetAutoRespond(false)
	frame, err := pkt.BuildUDP(hs.MAC(), hd.MAC(), hs.IP(), hd.IP(), 4000, 4001, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		hs.Send(frame)
		select {
		case rx := <-hd.Recv():
			dec := pkt.Decode(rx.Frame)
			if u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP); ok && string(u.Payload()) == payload {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatalf("payload %q never delivered %s→%s", payload, src, dst)
}

func TestDeploySpansThreeDomains(t *testing.T) {
	env, err := StartEnvironment(testSpec(3, 1, 4, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	g := spanGraph("tri", 3, 0, 3)
	svc, err := env.Global.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Running() {
		t.Fatal("composite service not Running")
	}
	if svc.InterDomainHops() < 2 {
		t.Errorf("chain d0→d2 crossed %d gateways, want ≥2", svc.InterDomainHops())
	}
	// The split must touch all three domains (d1 at least as transit).
	for _, d := range []string{"d0", "d1", "d2"} {
		if svc.Subs[d] == nil {
			t.Errorf("no sub-service in %s", d)
		}
	}

	// Stitched steering carries real traffic end to end...
	pump(t, env, "d0.a0", "d2.b0", "across-three-domains")
	// ...and the per-domain flow counters prove every segment forwarded.
	pkts, _, err := env.Global.ChainFlowStats("tri")
	if err != nil {
		t.Fatal(err)
	}
	if pkts == 0 {
		t.Error("stitched chain carried traffic but flow stats read 0 packets")
	}

	if err := env.Global.Undeploy("tri"); err != nil {
		t.Fatal(err)
	}
	if n := env.Steering.ActivePaths(); n != 0 {
		t.Errorf("undeploy leaked %d steering paths", n)
	}
	for _, d := range env.Global.Domains() {
		if cpu, mem := env.Global.AbstractView().Committed(d); cpu != 0 || mem != 0 {
			t.Errorf("abstract view still holds %v CPU / %d mem in %s", cpu, mem, d)
		}
	}
}

func TestConcurrentMultiDomainDeploys(t *testing.T) {
	const conc = 4
	env, err := StartEnvironment(testSpec(3, conc, 8, 8192))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	graphs := make([]*sg.Graph, conc)
	for j := range graphs {
		graphs[j] = spanGraph(fmt.Sprintf("svc%d", j), 3, j, 2)
	}
	errs := make([]error, conc)
	var wg sync.WaitGroup
	for j, g := range graphs {
		wg.Add(1)
		go func(j int, g *sg.Graph) {
			defer wg.Done()
			_, errs[j] = env.Global.Deploy(g)
		}(j, g)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("concurrent deploy %d: %v", j, err)
		}
	}
	for _, g := range graphs {
		if svc := env.Global.Service(g.Name); svc == nil || !svc.Running() {
			t.Errorf("service %q not Running", g.Name)
		}
	}
	// All four chains cross the same two gateway trunks; distinct stitch
	// tags keep them separable, so each can carry its own traffic.
	pump(t, env, "d0.a1", "d2.b1", "tenant-1-isolated")

	for j, g := range graphs {
		wg.Add(1)
		go func(j int, name string) {
			defer wg.Done()
			errs[j] = env.Global.Undeploy(name)
		}(j, g.Name)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("concurrent undeploy %d: %v", j, err)
		}
	}
	if n := env.Steering.ActivePaths(); n != 0 {
		t.Errorf("leaked %d steering paths", n)
	}
}

// TestDomainAdmissionRollback drives the aggregation gap: the abstract
// view (summed EE capacity) admits a request no single EE of the target
// domain can host. The domain-level rejection must roll the global commit
// back completely.
func TestDomainAdmissionRollback(t *testing.T) {
	spec := testSpec(2, 1, 1, 1024) // EEs of 1 CPU each; aggregate 2 per domain
	env, err := StartEnvironment(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	g := spanGraph("fat", 2, 0, 1)
	g.NFs[0].CPU = 1.5 // fits the 2-CPU aggregate, no single 1-CPU EE
	if _, err := env.Global.Deploy(g); err == nil {
		t.Fatal("deploy succeeded past domain-level admission")
	}
	for _, d := range env.Global.Domains() {
		if cpu, mem := env.Global.AbstractView().Committed(d); cpu != 0 || mem != 0 {
			t.Errorf("rollback left %v CPU / %d mem committed in %s", cpu, mem, d)
		}
	}
	if n := env.Steering.ActivePaths(); n != 0 {
		t.Errorf("rollback leaked %d steering paths", n)
	}
	if env.Global.Service("fat") != nil {
		t.Error("failed service still registered")
	}

	// The same name and a feasible demand now deploy cleanly.
	g2 := spanGraph("fat", 2, 0, 1)
	g2.NFs[0].CPU = 0.5
	if _, err := env.Global.Deploy(g2); err != nil {
		t.Fatalf("feasible retry failed: %v", err)
	}
	if err := env.Global.Undeploy("fat"); err != nil {
		t.Fatal(err)
	}
}

// TestSplitPreservesDelayBound: a cross-domain link's MaxDelay must
// survive splitting, so a domain whose internal trunks alone bust the
// budget rejects its segment (the flat orchestrator would reject the
// same graph; hierarchical must not silently accept it).
func TestSplitPreservesDelayBound(t *testing.T) {
	spec := testSpec(2, 1, 4, 4096)
	// d1's internal s1—s2 trunk is slow; the chain's last link ends at
	// d1.b0 behind it.
	spec.Domains[1].Trunks = []core.TrunkSpec{{A: "d1.s1", B: "d1.s2", Delay: 10 * time.Millisecond}}
	env, err := StartEnvironment(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	g := spanGraph("slow", 2, 0, 1)
	g.Links[len(g.Links)-1].MaxDelay = time.Millisecond
	if _, err := env.Global.Deploy(g); err == nil {
		t.Fatal("hierarchical deploy accepted a chain whose segment busts its delay bound")
	}
	if n := env.Steering.ActivePaths(); n != 0 {
		t.Errorf("failed deploy leaked %d steering paths", n)
	}

	// Relaxing the bound makes the same chain deployable.
	g2 := spanGraph("slow", 2, 0, 1)
	g2.Links[len(g2.Links)-1].MaxDelay = 50 * time.Millisecond
	if _, err := env.Global.Deploy(g2); err != nil {
		t.Fatalf("feasible delay bound rejected: %v", err)
	}
	if err := env.Global.Undeploy("slow"); err != nil {
		t.Fatal(err)
	}
}

func TestSplitTransitDomain(t *testing.T) {
	env, err := StartEnvironment(testSpec(3, 1, 2, 2048))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	// Force a split whose middle domain is pure transit: one NF pinned to
	// d0 (by CPU that only fits there is fragile — instead use a 0-NF
	// graph d0→d2, which must transit d1).
	g := &sg.Graph{
		Name: "transit",
		SAPs: []*sg.SAP{{ID: "d0.a0"}, {ID: "d2.b0"}},
		Links: []*sg.Link{{
			ID:  "l1",
			Src: sg.Endpoint{Node: "d0.a0"},
			Dst: sg.Endpoint{Node: "d2.b0"},
		}},
	}
	am, err := env.Global.AbstractView().AdmitAndCommit(env.Global.mapper, g)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Global.AbstractView().Release(am)
	plan, err := env.Global.split(g, am)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Global.tags.release(plan.tags)
	if len(plan.subs) != 3 {
		t.Fatalf("split touched %d domains, want 3", len(plan.subs))
	}
	mid := plan.subs["d1"]
	if mid == nil || len(mid.NFs) != 0 || len(mid.Links) != 1 {
		t.Fatalf("transit sub-graph malformed: %+v", mid)
	}
	l := mid.Links[0]
	if l.IngressTag == 0 || l.EgressTag == 0 {
		t.Errorf("transit segment missing stitch tags: in=%d out=%d", l.IngressTag, l.EgressTag)
	}
	if l.Src.Node != GatewaySAP("d1", "d0") || l.Dst.Node != GatewaySAP("d1", "d2") {
		t.Errorf("transit segment joins %s→%s", l.Src.Node, l.Dst.Node)
	}
	// Edge segments carry matching tags: d0's egress == d1's ingress.
	if first := plan.subs["d0"].Links[0]; first.EgressTag != l.IngressTag {
		t.Errorf("stitch tag mismatch at d0→d1: %d vs %d", first.EgressTag, l.IngressTag)
	}
	if last := plan.subs["d2"].Links[0]; last.IngressTag != l.EgressTag {
		t.Errorf("stitch tag mismatch at d1→d2: %d vs %d", l.EgressTag, last.IngressTag)
	}
	if len(plan.tags) != 2 {
		t.Errorf("allocated %d stitch tags, want 2", len(plan.tags))
	}
}

// TestIsolatedNFIsDelegated: an NF no link references is still placed
// and charged by the abstract mapping, so it must be realized in its
// domain exactly as the flat orchestrator would realize it.
func TestIsolatedNFIsDelegated(t *testing.T) {
	env, err := StartEnvironment(testSpec(2, 1, 4, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	g := spanGraph("island", 2, 0, 1)
	g.NFs = append(g.NFs, &sg.NF{ID: "lonely", Type: "monitor"})
	svc, err := env.Global.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	dom, ok := svc.Mapping.Placements["lonely"]
	if !ok {
		t.Fatal("isolated NF missing from abstract placements")
	}
	sub := svc.Subs[dom]
	if sub == nil || sub.NFs["lonely"] == nil || sub.NFs["lonely"].Control == "" {
		t.Errorf("isolated NF not realized in domain %s", dom)
	}
	if err := env.Global.Undeploy("island"); err != nil {
		t.Fatal(err)
	}
}

func TestDeployRejectsReservedAndDuplicateNames(t *testing.T) {
	env, err := StartEnvironment(testSpec(2, 1, 2, 2048))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	bad := spanGraph("bad", 2, 0, 1)
	bad.NFs[0].ID = "gw:sneaky"
	bad.Links[0].Dst.Node = "gw:sneaky"
	bad.Links[1].Src.Node = "gw:sneaky"
	if _, err := env.Global.Deploy(bad); err == nil {
		t.Error("reserved gw: node id accepted")
	}

	g := spanGraph("dup", 2, 0, 1)
	if _, err := env.Global.Deploy(g); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Global.Deploy(spanGraph("dup", 2, 0, 1)); err == nil {
		t.Error("duplicate service name accepted")
	}
	if err := env.Global.Undeploy("dup"); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty", func(s *Spec) { s.Domains = nil }},
		{"dup-domain", func(s *Spec) { s.Domains = append(s.Domains, s.Domains[0]) }},
		{"foreign-trunk", func(s *Spec) {
			s.Domains[0].Trunks = append(s.Domains[0].Trunks, core.TrunkSpec{A: "d0.s1", B: "d1.s1"})
		}},
		{"self-inter", func(s *Spec) {
			s.Inter = append(s.Inter, InterLink{ADomain: "d0", ASwitch: "d0.s1", BDomain: "d0", BSwitch: "d0.s2"})
		}},
		{"double-gateway", func(s *Spec) {
			s.Inter = append(s.Inter, InterLink{ADomain: "d1", ASwitch: "d1.s1", BDomain: "d0", BSwitch: "d0.s1"})
		}},
	}
	for _, tc := range cases {
		spec := testSpec(2, 1, 1, 1024)
		tc.mut(&spec)
		if _, err := StartEnvironment(spec); err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
}
