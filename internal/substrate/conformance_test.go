package substrate_test

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"escape/internal/flowsim"
	"escape/internal/sg"
	"escape/internal/substrate"
)

// The cross-substrate conformance suite: the packet emulator and the
// flow-level simulator realize the same TopoSpec and play the same
// seeded trace through the same admission/healing code; every placement
// and steering decision must be identical. Cases target where the two
// could plausibly diverge — boundary-exact link fits, heal-induced
// re-steering, multi-domain VLAN stitching.

// playBoth runs one trace decisions-only on both substrates and returns
// the two reports.
func playBoth(t *testing.T, spec *substrate.TopoSpec, events []substrate.ScenarioEvent, opts substrate.PlayOptions) (nm, fs *substrate.PlayReport) {
	t.Helper()
	netemSub, err := substrate.NewNetem(spec, substrate.NetemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := netemSub.View()
	if err != nil {
		t.Fatal(err)
	}
	nm, err = substrate.PlayScenario(netemSub, nv, substrate.DefaultMapper(), events, opts)
	if err != nil {
		t.Fatal(err)
	}

	sim, err := flowsim.New(spec, flowsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()
	fv, err := sim.View()
	if err != nil {
		t.Fatal(err)
	}
	fs, err = substrate.PlayScenario(sim, fv, substrate.DefaultMapper(), events, opts)
	if err != nil {
		t.Fatal(err)
	}
	return nm, fs
}

// assertIdenticalDecisions compares every decision of the two reports.
func assertIdenticalDecisions(t *testing.T, nm, fs *substrate.PlayReport) {
	t.Helper()
	if nm.Admitted != fs.Admitted || nm.Rejected != fs.Rejected {
		t.Fatalf("admission counts diverge: netem %d/%d vs flowsim %d/%d",
			nm.Admitted, nm.Rejected, fs.Admitted, fs.Rejected)
	}
	if nm.HealMoves != fs.HealMoves || nm.Rerouted != fs.Rerouted {
		t.Fatalf("heal counts diverge: netem moves=%d routes=%d vs flowsim moves=%d routes=%d",
			nm.HealMoves, nm.Rerouted, fs.HealMoves, fs.Rerouted)
	}
	if len(nm.Decisions) != len(fs.Decisions) {
		t.Fatalf("decision counts diverge: %d vs %d", len(nm.Decisions), len(fs.Decisions))
	}
	for name, nd := range nm.Decisions {
		fd := fs.Decisions[name]
		if fd == nil {
			t.Fatalf("flowsim missing decision for %s", name)
		}
		if !reflect.DeepEqual(nd.Placements, fd.Placements) {
			t.Fatalf("%s placements diverge:\nnetem:   %v\nflowsim: %v", name, nd.Placements, fd.Placements)
		}
		if !reflect.DeepEqual(nd.Routes, fd.Routes) {
			t.Fatalf("%s routes diverge:\nnetem:   %v\nflowsim: %v", name, nd.Routes, fd.Routes)
		}
		if !reflect.DeepEqual(nd.HealMoves, fd.HealMoves) || !reflect.DeepEqual(nd.HealRoutes, fd.HealRoutes) {
			t.Fatalf("%s heal deltas diverge:\nnetem:   %v %v\nflowsim: %v %v",
				name, nd.HealMoves, nd.HealRoutes, fd.HealMoves, fd.HealRoutes)
		}
	}
}

// TestConformanceFatTreeWorkloads plays each arrival process over a
// small fat-tree on both substrates and requires identical decisions.
func TestConformanceFatTreeWorkloads(t *testing.T) {
	spec := substrate.FatTreeSpec(4, 10e9, 64, 1<<16)
	for _, proc := range []substrate.ArrivalProcess{substrate.Diurnal, substrate.FlashCrowd, substrate.HeavyTailed} {
		events := substrate.GenerateWorkload(substrate.WorkloadParams{
			Seed: 9, Process: proc, Services: 60,
			Horizon: time.Minute, MeanLifetime: 20 * time.Second,
			ChainLen: 2, Rate: 1e6, SAPs: spec.SAPNames(),
		})
		nm, fs := playBoth(t, spec, events, substrate.PlayOptions{})
		assertIdenticalDecisions(t, nm, fs)
		if nm.Admitted == 0 {
			t.Fatalf("%s: nothing admitted", proc)
		}
	}
}

// TestConformanceBoundaryExactLinkFit drives a single-path topology to
// an exact capacity boundary: the n-th admission fills the link to the
// last bit, the (n+1)-th must be rejected — identically on both
// substrates (a divergence here would mean the two views round
// capacity differently).
func TestConformanceBoundaryExactLinkFit(t *testing.T) {
	// One inter-switch link at exactly 3 × the per-chain demand.
	spec := substrate.LinearSpec(2, 3e6, 64, 1<<16)
	var events []substrate.ScenarioEvent
	for i := 0; i < 5; i++ {
		events = append(events, substrate.ScenarioEvent{
			At: time.Duration(i) * time.Second, Kind: substrate.Arrive, Seq: i,
			Service: svcName(i), SrcSAP: "h1", DstSAP: "h2",
			ChainLen: 1, Rate: 1e6,
		})
	}
	nm, fs := playBoth(t, spec, events, substrate.PlayOptions{LinkBW: 1e6})
	assertIdenticalDecisions(t, nm, fs)
	if nm.Admitted != 3 || nm.Rejected != 2 {
		t.Fatalf("boundary fit: admitted %d rejected %d, want 3/2", nm.Admitted, nm.Rejected)
	}
}

func svcName(i int) string {
	return "svc-" + string(rune('a'+i))
}

// TestConformanceHealInducedResteering fails a link mid-trace on a ring
// (an alternate path exists) and requires both substrates to compute
// identical heal plans — moved NFs and replacement routes.
func TestConformanceHealInducedResteering(t *testing.T) {
	spec := &substrate.TopoSpec{
		Name:     "ring4",
		Switches: []string{"s1", "s2", "s3", "s4"},
		Links: []substrate.LinkSpec{
			{A: "s1", B: "s2", Bandwidth: 1e9},
			{A: "s2", B: "s3", Bandwidth: 1e9},
			{A: "s3", B: "s4", Bandwidth: 1e9},
			{A: "s4", B: "s1", Bandwidth: 1e9},
		},
		Hosts: []substrate.HostSpec{
			{Name: "h1", Switch: "s1"},
			{Name: "h3", Switch: "s3"},
		},
		EEs: []substrate.EESpec{
			{Name: "ee-s2", Switch: "s2", CPU: 64, Mem: 1 << 16},
			{Name: "ee-s4", Switch: "s4", CPU: 64, Mem: 1 << 16},
		},
	}
	events := []substrate.ScenarioEvent{
		{At: 0, Kind: substrate.Arrive, Seq: 0, Service: "svc-ring",
			SrcSAP: "h1", DstSAP: "h3", ChainLen: 1, Rate: 1e6},
		{At: time.Second, Kind: substrate.FaultLink, Seq: 1, A: "s1", B: "s2"},
		{At: 2 * time.Second, Kind: substrate.RepairLink, Seq: 2, A: "s1", B: "s2"},
		{At: 3 * time.Second, Kind: substrate.Depart, Seq: 3, Service: "svc-ring"},
	}
	nm, fs := playBoth(t, spec, events, substrate.PlayOptions{HealOnFault: true})
	assertIdenticalDecisions(t, nm, fs)

	// The failure must actually have re-steered something: the KSP
	// mapper admits via s2 (shortest), the cut forces the healed route
	// the long way around the ring, avoiding s1-s2.
	d := nm.Decisions["svc-ring"]
	if d == nil {
		t.Fatal("service not admitted")
	}
	if nm.Rerouted == 0 {
		t.Fatalf("trace did not exercise re-steering: routes %v", d.Routes)
	}
	for id, route := range d.HealRoutes {
		for i := 1; i < len(route); i++ {
			if (route[i-1] == "s1" && route[i] == "s2") || (route[i-1] == "s2" && route[i] == "s1") {
				t.Fatalf("healed route %s still crosses the cut: %v", id, route)
			}
		}
	}
}

// TestConformanceMultiDomainStitching maps chains spanning three
// domains and compares the gateway-trunk crossing sequences plus the
// deterministic VLAN stitch-tag assignment across substrates: a tag
// per crossing, so equal crossings + equal allocation order ⇒ equal
// tags.
func TestConformanceMultiDomainStitching(t *testing.T) {
	spec, gateways := substrate.MultiDomainSpec(3, 3, 1e9, 64, 1<<16)
	events := substrate.GenerateWorkload(substrate.WorkloadParams{
		Seed: 21, Process: substrate.HeavyTailed, Services: 30,
		Horizon: time.Minute, MeanLifetime: 30 * time.Second,
		ChainLen: 2, Rate: 1e6,
		SAPs: []string{"d0s2h1", "d0s3h1", "d2s2h1", "d2s3h1"},
	})
	nm, fs := playBoth(t, spec, events, substrate.PlayOptions{})
	assertIdenticalDecisions(t, nm, fs)

	nTags := stitchTags(nm, gateways)
	fTags := stitchTags(fs, gateways)
	if !reflect.DeepEqual(nTags, fTags) {
		t.Fatalf("stitch-tag allocation diverges:\nnetem:   %v\nflowsim: %v", nTags, fTags)
	}
	cross := 0
	for _, tags := range nTags {
		cross += len(tags)
	}
	if cross == 0 {
		t.Fatal("no chain crossed a domain boundary — stitching untested")
	}
}

// stitchTags derives per-service VLAN stitch tags, one per gateway
// crossing: walk services in sorted order, find each route's gateway
// trunk crossings in chain order, and assign tags sequentially from
// sg.MinStitchTag.
func stitchTags(rep *substrate.PlayReport, gateways [][2]string) map[string][]uint16 {
	gw := map[[2]string]bool{}
	for _, g := range gateways {
		gw[g] = true
		gw[[2]string{g[1], g[0]}] = true
	}
	names := make([]string, 0, len(rep.Decisions))
	for name := range rep.Decisions {
		names = append(names, name)
	}
	sort.Strings(names)
	next := uint16(sg.MinStitchTag)
	out := map[string][]uint16{}
	for _, name := range names {
		d := rep.Decisions[name]
		ids := make([]string, 0, len(d.Routes))
		for id := range d.Routes {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			route := d.Routes[id]
			for i := 1; i < len(route); i++ {
				if gw[[2]string{route[i-1], route[i]}] {
					out[name] = append(out[name], next)
					next++
					if next > sg.MaxStitchTag {
						next = sg.MinStitchTag
					}
				}
			}
		}
	}
	return out
}

// TestConformanceTrafficAgreesOnCleanPath cross-checks the two traffic
// models where they should agree: an uncongested loss-free path
// delivers ≈ everything on both backends (netem within emulation
// jitter, flowsim exactly).
func TestConformanceTrafficAgreesOnCleanPath(t *testing.T) {
	spec := substrate.LinearSpec(2, 0, 8, 1024)

	netemSub, err := substrate.NewNetem(spec, substrate.NetemOptions{Learning: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := netemSub.Start(); err != nil {
		t.Fatal(err)
	}
	defer netemSub.Stop()
	if err := netemSub.StartFlow(substrate.FlowSpec{
		ID: "f", SrcSAP: "h1", DstSAP: "h2",
		Route: []string{"s1", "s2"}, Rate: 2e6, FrameSize: 500,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	nst, err := netemSub.StopFlow("f")
	if err != nil {
		t.Fatal(err)
	}

	sim, err := flowsim.New(spec, flowsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	if err := sim.StartFlow(substrate.FlowSpec{
		ID: "f", SrcSAP: "h1", DstSAP: "h2",
		Route: []string{"s1", "s2"}, Rate: 2e6,
	}); err != nil {
		t.Fatal(err)
	}
	sim.AdvanceTo(80 * time.Millisecond)
	fst, err := sim.StopFlow("f")
	if err != nil {
		t.Fatal(err)
	}

	if fst.DeliveredRatio() != 1 {
		t.Fatalf("flowsim clean path should deliver 100%%: %+v", fst)
	}
	if nst.DeliveredRatio() < 0.9 {
		t.Fatalf("netem clean path delivered only %.1f%%", nst.DeliveredRatio()*100)
	}
}
