package core

import (
	"reflect"
	"testing"

	"escape/internal/catalog"
)

// healRegionView is regionView(8, 60) — 568 links — with every link
// capacitated, one roomy EE on r1s12 and a SAP pair on r0s3 and r2s7, so
// a sap1→nf1→sap2 chain routes across three regions and every hop of
// its routes near the SAPs has a detour.
func healRegionView() *ResourceView {
	rv := regionView(8, 60)
	for _, l := range rv.Links {
		l.Bandwidth = 1e9
	}
	rv.EEs["ee1"] = &EERes{Name: "ee1", CPU: 64, Mem: 1 << 20, Switch: "r1s12"}
	rv.SAPs["sap1"] = &SAPRes{ID: "sap1", Switch: "r0s3", Port: 1}
	rv.SAPs["sap2"] = &SAPRes{ID: "sap2", Switch: "r2s7", Port: 1}
	return rv
}

// admitHealChain admits a one-NF chain with a 1 Mbit/s demand per link.
func admitHealChain(t *testing.T, rv *ResourceView) *Mapping {
	t.Helper()
	g := cowChain("svc", 1, 0.25, 32)
	for _, l := range g.Links {
		l.Bandwidth = 1e6
	}
	m, err := rv.AdmitAndCommit(&KSPMapper{Catalog: catalog.Default()}, g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func noneDown(string) bool { return false }

// routeCrosses reports whether a switch route crosses the link a–b.
func routeCrosses(route []string, a, b string) bool {
	for i := 0; i+1 < len(route); i++ {
		if mkLinkKey(route[i], route[i+1]) == mkLinkKey(a, b) {
			return true
		}
	}
	return false
}

// TestPlanHealReadsOnlyTouchedLinks: a heal reads its link predicate for
// the hops of the mapping's routes and the links its re-routing search
// looks at, not for every link of the view. With the failed link masked
// and the path cache warmed by one heal, a second heal is answered by a
// cached candidate and asks about a few dozen links of 568.
func TestPlanHealReadsOnlyTouchedLinks(t *testing.T) {
	rv := healRegionView()
	m := admitHealChain(t, rv)
	route := m.Routes["l1"]
	if len(route) < 3 {
		t.Fatalf("sap1→nf1 route %v crosses fewer than two links", route)
	}
	a, b := route[0], route[1]
	rv.ExcludeLink(a, b)
	warm, err := rv.PlanHeal(m, noneDown, rv.ExcludedLink)
	if err != nil {
		t.Fatal(err)
	}
	before := rv.PathCacheStats()
	calls := 0
	plan, err := rv.PlanHeal(m, noneDown, func(x, y string) bool {
		calls++
		return rv.ExcludedLink(x, y)
	})
	if err != nil {
		t.Fatal(err)
	}
	after := rv.PathCacheStats()
	if after.Hits != before.Hits+1 || after.Fallbacks != before.Fallbacks {
		t.Fatalf("heal not answered by one cached candidate: stats %+v → %+v", before, after)
	}
	if !reflect.DeepEqual(plan, warm) {
		t.Fatalf("the same heal planned twice differs: %+v then %+v", warm, plan)
	}
	if routeCrosses(plan.Routes["l1"], a, b) {
		t.Fatalf("healed route %v crosses the failed link %s–%s", plan.Routes["l1"], a, b)
	}
	if calls == 0 || calls > len(rv.Links)/8 {
		t.Fatalf("heal asked its link predicate %d times on a view of %d links, want 1..%d",
			calls, len(rv.Links), len(rv.Links)/8)
	}
	t.Logf("%d predicate calls for %d view links", calls, len(rv.Links))
}

// TestPlanHealAvoidsCallerOnlyDownLink: a link the caller's linkDown
// reports down is never on a healed route, even though the view does not
// mask it and the path cache's candidates still cross it. Every hop of
// the mapping's routes is failed in turn, so the heal is answered by a
// cached candidate, by the live search or by a grown entry; a healed
// mapping also gives the failed link its bandwidth back.
func TestPlanHealAvoidsCallerOnlyDownLink(t *testing.T) {
	hops := 0
	for _, route := range admitHealChain(t, healRegionView()).Routes {
		hops += len(route) - 1
	}
	for hop := 0; hop < hops; hop++ {
		rv := healRegionView()
		m := admitHealChain(t, rv)
		var a, b string
		n := hop
		for _, id := range []string{"l1", "l2"} {
			if r := m.Routes[id]; n < len(r)-1 {
				a, b = r[n], r[n+1]
				break
			} else {
				n -= len(r) - 1
			}
		}
		down := func(x, y string) bool { return mkLinkKey(x, y) == mkLinkKey(a, b) }
		plan, err := rv.AdmitHeal(m, noneDown, down)
		if err != nil {
			t.Fatalf("%s–%s down: %v", a, b, err)
		}
		if rv.ExcludedLink(a, b) {
			t.Fatalf("%s–%s: the heal masked the view", a, b)
		}
		healed := m.WithPlan(plan)
		for id, r := range healed.Routes {
			if routeCrosses(r, a, b) {
				t.Fatalf("%s–%s down: healed %s route %v crosses it", a, b, id, r)
			}
		}
		if len(plan.Routes) == 0 {
			t.Fatalf("%s–%s down: nothing re-routed", a, b)
		}
		if got := rv.CommittedBW(a, b); got != 0 {
			t.Fatalf("%s–%s down: %d bit/s still committed on it after the heal", a, b, got)
		}
	}
}
