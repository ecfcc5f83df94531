package core

import (
	"fmt"
	"testing"

	"escape/internal/sg"
)

// linkFree and linkFits are the name-keyed forms of linkFreeID and
// linkFitsID that the view's tests check records and routes with.
func (c *Capacities) linkFree(k linkKey) linkRec { return c.linkFreeID(c.ix.linkRef(k.a, k.b, false)) }

func (c *Capacities) linkFits(a, b string, bw sg.BW) bool {
	id := c.ix.linkByName(a, b)
	return id >= 0 && c.linkFitsID(id, bw)
}

// TestRecordsOutsideFrozenIndex: names the frozen index does not hold —
// an EE added after the first mapping, an EE or link nobody declared —
// keep their masks and committed records, with capacity resolved as for
// any other name (an EE through rv.EEs, a non-link to none), and stay
// out of Fingerprint.
func TestRecordsOutsideFrozenIndex(t *testing.T) {
	rv := ringView(4, 1, 1024, 1e6)
	before := rv.Fingerprint() // freezes the index

	ep := rv.Epoch()
	rv.ExcludeEE("ghost")
	rv.ExcludeLink("nowhere", "r00")
	if !rv.ExcludedEE("ghost") || !rv.ExcludedLink("r00", "nowhere") || rv.Epoch() != ep+2 {
		t.Fatalf("masks on unknown names: ee %v link %v, epoch %d want %d",
			rv.ExcludedEE("ghost"), rv.ExcludedLink("r00", "nowhere"), rv.Epoch(), ep+2)
	}
	if rv.ExcludedEE("other") || rv.ExcludedLink("r00", "r02") {
		t.Fatal("an unknown name reads as masked")
	}
	rv.UnexcludeEE("other") // unknown and unmasked: no epoch
	if rv.Epoch() != ep+2 {
		t.Fatal("unmasking an unknown name published an epoch")
	}
	if got := rv.Fingerprint(); got != before {
		t.Fatal("records on names outside the topology changed the fingerprint")
	}
	if rv.Snapshot().FitsEE("ghost", 0, 0) {
		t.Fatal("a masked unknown EE fits")
	}

	rv.EEs["late"] = &EERes{Name: "late", CPU: 2, Mem: 64, Switch: ringName(1)}
	g := &sg.Graph{
		NFs:   []*sg.NF{{ID: "nf", Type: "monitor", CPU: 0.5, Mem: 8}},
		Links: []*sg.Link{{ID: "l", Bandwidth: 1000}},
	}
	m := &Mapping{Graph: g, Placements: map[string]string{"nf": "late"},
		Routes: map[string][]string{"l": {ringName(0), "nowhere"}}}
	rv.Commit(m)
	if cpu, mem := rv.Committed("late"); cpu != 500_000 || mem != 8 {
		t.Fatalf("late EE committed (%d, %d), want (500000, 8)", cpu, mem)
	}
	if got := rv.CommittedBW("nowhere", ringName(0)); got != 1000 {
		t.Fatalf("non-link committed %d, want 1000", got)
	}
	caps := rv.Snapshot()
	if got := caps.FreeCPU("late"); got != 1_500_000 {
		t.Fatalf("late EE free CPU %d, want 1500000", got)
	}
	if caps.linkFits(ringName(0), "nowhere", 0) {
		t.Fatal("a non-link fits")
	}
	if ok, _ := rv.TryCommitMapping(m); ok {
		t.Fatal("a mapping routed over a non-link validated")
	}
	rv.Release(m)
	if cpu, mem := rv.Committed("late"); cpu != 0 || mem != 0 || rv.CommittedBW(ringName(0), "nowhere") != 0 {
		t.Fatal("release did not restore the late EE and the non-link")
	}
}

// TestFrozenCapacitiesMatchUnits: the index converts each EE's and
// link's capacity to view units once, exactly as sg.CPUOf and sg.BWOf
// do; a link without capacity takes any bandwidth, and one whose
// positive capacity rounds to 0 bit/s takes none.
func TestFrozenCapacitiesMatchUnits(t *testing.T) {
	rv := ringView(6, 1, 1024, 0)
	for i, cpu := range []float64{0.1, 1.5, 0.3333333, 2.0000005, 1e-7, 7} {
		rv.EEs[fmt.Sprintf("ee%02d", i)].CPU = cpu
	}
	for i, bw := range []float64{0, 0.4, 1e6 + 0.6, 10e9, 1.5, 0} {
		rv.Links[i].Bandwidth = bw
	}
	ix := rv.topo()
	for id, res := range ix.ees {
		want, _ := sg.CPUOf(res.CPU)
		if got := ix.ecap[id]; got.cpu != want || got.mem != res.Mem {
			t.Errorf("EE %s frozen as %+v, want cpu %d mem %d", res.Name, got, want, res.Mem)
		}
	}
	caps := rv.Snapshot()
	huge := sg.BW(1) << 60
	for id, l := range ix.links {
		want, _ := sg.BWOf(l.Bandwidth)
		if got := ix.lcap[id]; got.bw != want || got.capped != (l.Bandwidth > 0) {
			t.Errorf("link %s–%s (%v bit/s) frozen as %+v, want bw %d capped %v",
				l.A, l.B, l.Bandwidth, got, want, l.Bandwidth > 0)
		}
		if fits := caps.linkFits(l.A, l.B, huge); fits != (l.Bandwidth <= 0) {
			t.Errorf("link %s–%s (%v bit/s): %d bit/s fits = %v", l.A, l.B, l.Bandwidth, huge, fits)
		}
	}
	if caps.linkFits(rv.Links[1].A, rv.Links[1].B, 1) {
		t.Error("a link of 0.4 bit/s takes 1 bit/s")
	}

	// An uncapacitated link takes any bandwidth at commit as well, and
	// keeps no reservation.
	g := &sg.Graph{Links: []*sg.Link{{ID: "l", Bandwidth: float64(huge)}}}
	m := &Mapping{Graph: g, Routes: map[string][]string{"l": {rv.Links[0].A, rv.Links[0].B}}}
	if ok, _ := rv.TryCommitMapping(m); !ok {
		t.Fatal("an uncapacitated link refused a commit")
	}
	caps = rv.Snapshot()
	caps.takePath(m.Routes["l"], huge)
	if !caps.linkFits(rv.Links[0].A, rv.Links[0].B, huge) {
		t.Error("an uncapacitated link stopped fitting after a reservation")
	}
}
