package ofswitch

import (
	"testing"
	"testing/quick"
	"time"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

var (
	fmac1 = pkt.MAC{2, 0, 0, 0, 0, 1}
	fmac2 = pkt.MAC{2, 0, 0, 0, 0, 2}
)

func fieldsOnPort(t testing.TB, inPort uint16) openflow.PacketFields {
	t.Helper()
	frame, err := pkt.BuildUDP(fmac1, fmac2, tip("10.0.0.1"), tip("10.0.0.2"), 100, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := openflow.ExtractFields(frame, inPort)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func matchInPort(p uint16) openflow.Match {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildInPort
	m.InPort = p
	return m
}

func TestFlowTablePriorityOrder(t *testing.T) {
	ft := NewFlowTable(nil)
	lo := &FlowEntry{Match: openflow.MatchAll(), Priority: 1, Cookie: 1}
	hi := &FlowEntry{Match: matchInPort(1), Priority: 100, Cookie: 2}
	ft.Add(lo)
	ft.Add(hi)
	f := fieldsOnPort(t, 1)
	got := ft.Lookup(f, 60)
	if got == nil || got.Cookie != 2 {
		t.Fatalf("lookup = %+v, want high-priority entry", got)
	}
	// Port 2 misses the specific entry, falls to the wildcard.
	f2 := fieldsOnPort(t, 2)
	got2 := ft.Lookup(f2, 60)
	if got2 == nil || got2.Cookie != 1 {
		t.Fatalf("lookup = %+v, want wildcard entry", got2)
	}
}

func TestFlowTableAddReplacesSameMatch(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5, Cookie: 1})
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5, Cookie: 2})
	if ft.Len() != 1 {
		t.Fatalf("len = %d, want 1 (replace)", ft.Len())
	}
	if e := ft.Lookup(fieldsOnPort(t, 1), 60); e.Cookie != 2 {
		t.Errorf("cookie = %d, want 2", e.Cookie)
	}
	// Different priority is a distinct entry.
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 6, Cookie: 3})
	if ft.Len() != 2 {
		t.Errorf("len = %d, want 2", ft.Len())
	}
}

func TestFlowTableCounters(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1})
	ft.Lookup(fieldsOnPort(t, 1), 100)
	ft.Lookup(fieldsOnPort(t, 1), 50)
	e := ft.Entries()[0]
	if e.Packets != 2 || e.Bytes != 150 {
		t.Errorf("counters = %d pkts %d bytes", e.Packets, e.Bytes)
	}
}

func TestFlowTableDeleteStrictVsNonStrict(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 5})
	ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1})
	// Strict delete of a non-existent (match, prio) combination: no-op.
	if n := ft.delete(matchInPort(1), 99, true); n != 0 {
		t.Errorf("strict delete removed %d", n)
	}
	// Strict delete of exactly one.
	if n := ft.delete(matchInPort(1), 5, true); n != 1 {
		t.Errorf("strict delete removed %d", n)
	}
	// Non-strict wildcard delete removes everything remaining.
	if n := ft.delete(openflow.MatchAll(), 0, false); n != 2 {
		t.Errorf("non-strict delete removed %d", n)
	}
	if ft.Len() != 0 {
		t.Errorf("len = %d", ft.Len())
	}
}

func TestFlowTableModify(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5, Actions: []openflow.Action{openflow.ActionOutput{Port: 1}}})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 5, Actions: []openflow.Action{openflow.ActionOutput{Port: 2}}})
	n := ft.modify(openflow.MatchAll(), 0, []openflow.Action{openflow.ActionOutput{Port: 9}}, false)
	if n != 2 {
		t.Fatalf("modified %d", n)
	}
	for _, e := range ft.Entries() {
		if e.Actions[0].(openflow.ActionOutput).Port != 9 {
			t.Errorf("entry not modified: %+v", e.Actions)
		}
	}
}

func TestFlowTableSweepTimeouts(t *testing.T) {
	var removed []uint8
	ft := NewFlowTable(func(e *FlowEntry, reason uint8) { removed = append(removed, reason) })
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5,
		IdleTimeout: 10 * time.Millisecond, Flags: openflow.FlagSendFlowRem})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 5,
		HardTimeout: 20 * time.Millisecond, Flags: openflow.FlagSendFlowRem})
	ft.Add(&FlowEntry{Match: matchInPort(3), Priority: 5}) // no timeout
	if n := ft.sweep(time.Now()); n != 0 {
		t.Fatalf("premature sweep removed %d", n)
	}
	n := ft.sweep(time.Now().Add(50 * time.Millisecond))
	if n != 2 {
		t.Fatalf("sweep removed %d, want 2", n)
	}
	if ft.Len() != 1 {
		t.Errorf("len = %d", ft.Len())
	}
	if len(removed) != 2 {
		t.Fatalf("removed callbacks = %d", len(removed))
	}
	seen := map[uint8]bool{}
	for _, r := range removed {
		seen[r] = true
	}
	if !seen[openflow.RemReasonIdleTimeout] || !seen[openflow.RemReasonHardTimeout] {
		t.Errorf("reasons = %v", removed)
	}
}

// TestSweepAllocatesNothing: a sweep that finds nothing to evict allocates
// nothing — at once over a table of steering rules, which have no
// timeouts, and after a scan over one whose timed entry has not expired.
func TestSweepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under -race")
	}
	ft := NewFlowTable(nil)
	for p := uint16(1); p <= 64; p++ {
		ft.Add(&FlowEntry{Match: matchInPort(p), Priority: 100, Actions: []openflow.Action{openflow.ActionOutput{Port: p + 1}}})
	}
	later := time.Now().Add(time.Hour)
	if n := testing.AllocsPerRun(100, func() { ft.sweep(later) }); n != 0 {
		t.Errorf("a sweep over steering rules costs %v allocations, want 0", n)
	}
	ft.Add(&FlowEntry{Match: matchInPort(100), Priority: 1, IdleTimeout: 2 * time.Hour})
	if n := testing.AllocsPerRun(100, func() { ft.sweep(later) }); n != 0 {
		t.Errorf("a sweep that evicts nothing costs %v allocations, want 0", n)
	}
	if n := ft.sweep(later.Add(2 * time.Hour)); n != 1 || ft.Len() != 64 {
		t.Fatalf("sweep past the timeout evicted %d, left %d entries; want 1 and 64", n, ft.Len())
	}
}

func TestFlowTableIdleRefreshedByTraffic(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: 1, IdleTimeout: 50 * time.Millisecond})
	base := time.Now()
	// Traffic at +40ms refreshes LastUsed.
	time.Sleep(40 * time.Millisecond)
	ft.Lookup(fieldsOnPort(t, 1), 60)
	if n := ft.sweep(base.Add(60 * time.Millisecond)); n != 0 {
		t.Fatalf("active flow evicted")
	}
}

func TestAggregateStats(t *testing.T) {
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: matchInPort(1), Priority: 5})
	ft.Add(&FlowEntry{Match: matchInPort(2), Priority: 5})
	ft.Lookup(fieldsOnPort(t, 1), 100)
	ft.Lookup(fieldsOnPort(t, 2), 100)
	ft.Lookup(fieldsOnPort(t, 2), 100)
	agg := ft.aggregate(openflow.MatchAll())
	if agg.FlowCount != 2 || agg.PacketCount != 3 || agg.ByteCount != 300 {
		t.Errorf("aggregate = %+v", agg)
	}
	// Aggregate over a specific in_port.
	agg1 := ft.aggregate(matchInPort(1))
	if agg1.FlowCount != 1 || agg1.PacketCount != 1 {
		t.Errorf("aggregate(port1) = %+v", agg1)
	}
}

func TestSubsumes(t *testing.T) {
	all := openflow.MatchAll()
	p1 := matchInPort(1)
	if !subsumes(all, p1) {
		t.Error("wildcard must subsume specific")
	}
	if subsumes(p1, all) {
		t.Error("specific must not subsume wildcard")
	}
	if !subsumes(p1, p1) {
		t.Error("subsumes must be reflexive")
	}
	p2 := matchInPort(2)
	if subsumes(p1, p2) || subsumes(p2, p1) {
		t.Error("disjoint matches subsume each other")
	}
	// Address prefixes: the shorter (broader) one subsumes the longer.
	s16, s24 := matchNWSrc("10.0.0.0", 16), matchNWSrc("10.0.0.0", 24)
	d16, d24 := matchNW("10.0.0.0", 16, nwDstShift), matchNW("10.0.0.0", 24, nwDstShift)
	for _, tc := range []struct {
		name string
		a, b openflow.Match
		want bool
	}{
		{"src /24 vs /16", s24, s16, false},
		{"src /16 vs /24", s16, s24, true},
		{"src equal prefixes", s24, s24, true},
		{"src wildcard vs /16", all, s16, true},
		{"src /16 vs wildcard", s16, all, false},
		{"dst /24 vs /16", d24, d16, false},
		{"dst /16 vs /24", d16, d24, true},
		{"dst equal prefixes", d16, d16, true},
		{"both wildcarded", all, all, true},
		{"src /16 vs dst /16", s16, d16, false},
	} {
		if got := subsumes(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: subsumes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Property: Lookup always returns the highest-priority matching entry.
func TestQuickLookupHighestPriority(t *testing.T) {
	f := func(prios []uint16) bool {
		if len(prios) == 0 {
			return true
		}
		if len(prios) > 32 {
			prios = prios[:32]
		}
		ft := NewFlowTable(nil)
		max := uint16(0)
		for i, p := range prios {
			ft.Add(&FlowEntry{Match: openflow.MatchAll(), Priority: p, Cookie: uint64(i)})
			if p > max {
				max = p
			}
		}
		e := ft.Lookup(fieldsOnPort(t, 1), 60)
		return e != nil && e.Priority == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
