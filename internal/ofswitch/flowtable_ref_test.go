package ofswitch

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

// refFlowTable is the flow table as it was before lookups went lock-free —
// one mutex, entries mutated in place, a clock read per hit — kept as the
// obviously-correct model the snapshot table is checked against. Apart
// from the type name and the injectable clock it is that code verbatim.
type refFlowTable struct {
	mu      sync.RWMutex
	entries []*FlowEntry // sorted by priority desc, stable insertion order
	removed func(*FlowEntry, uint8)
	now     func() time.Time
}

func (t *refFlowTable) Entries() []FlowEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]FlowEntry, len(t.entries))
	for i, e := range t.entries {
		out[i] = *e
	}
	return out
}

func (t *refFlowTable) Add(e *FlowEntry) {
	now := t.now()
	e.Created = now
	e.LastUsed = now
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			t.entries[i] = e
			return
		}
	}
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
}

func (t *refFlowTable) Lookup(f openflow.PacketFields, frameLen int) *FlowEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.entries {
		if e.Match.Matches(&f) {
			e.Packets++
			e.Bytes += uint64(frameLen)
			e.LastUsed = t.now()
			return e
		}
	}
	return nil
}

func (t *refFlowTable) Modify(m openflow.Match, priority uint16, actions []openflow.Action, strict bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.entries {
		if strict {
			if e.Priority == priority && e.Match == m {
				e.Actions = actions
				n++
			}
		} else if subsumes(m, e.Match) {
			e.Actions = actions
			n++
		}
	}
	return n
}

func (t *refFlowTable) Delete(m openflow.Match, priority uint16, strict bool) int {
	t.mu.Lock()
	var victims []*FlowEntry
	keep := t.entries[:0]
	for _, e := range t.entries {
		doomed := false
		if strict {
			doomed = e.Priority == priority && e.Match == m
		} else {
			doomed = subsumes(m, e.Match)
		}
		if doomed {
			victims = append(victims, e)
		} else {
			keep = append(keep, e)
		}
	}
	t.entries = keep
	t.mu.Unlock()
	for _, e := range victims {
		t.notifyRemoved(e, openflow.RemReasonDelete)
	}
	return len(victims)
}

func (t *refFlowTable) Sweep(now time.Time) int {
	t.mu.Lock()
	var victims []*FlowEntry
	var reasons []uint8
	keep := t.entries[:0]
	for _, e := range t.entries {
		switch {
		case e.HardTimeout > 0 && now.Sub(e.Created) >= e.HardTimeout:
			victims = append(victims, e)
			reasons = append(reasons, openflow.RemReasonHardTimeout)
		case e.IdleTimeout > 0 && now.Sub(e.LastUsed) >= e.IdleTimeout:
			victims = append(victims, e)
			reasons = append(reasons, openflow.RemReasonIdleTimeout)
		default:
			keep = append(keep, e)
		}
	}
	t.entries = keep
	t.mu.Unlock()
	for i, e := range victims {
		t.notifyRemoved(e, reasons[i])
	}
	return len(victims)
}

func (t *refFlowTable) notifyRemoved(e *FlowEntry, reason uint8) {
	if t.removed != nil && e.Flags&openflow.FlagSendFlowRem != 0 {
		t.removed(e, reason)
	}
}

func (t *refFlowTable) Aggregate(m openflow.Match) openflow.AggregateStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var agg openflow.AggregateStats
	for _, e := range t.entries {
		if subsumes(m, e.Match) {
			agg.PacketCount += e.Packets
			agg.ByteCount += e.Bytes
			agg.FlowCount++
		}
	}
	return agg
}

// Where the 6-bit nw_src and nw_dst wildcard counts sit in Match.Wildcards.
const nwSrcShift, nwDstShift = 8, 14

// matchNW matches IPv4 frames whose source (shift nwSrcShift) or
// destination (nwDstShift) lies in the /prefix around addr.
func matchNW(addr string, prefix int, shift uint) openflow.Match {
	m := openflow.MatchAll()
	m.Wildcards = m.Wildcards&^(openflow.WildDLType|0x3f<<shift) | uint32(32-prefix)<<shift
	m.DLType = 0x0800
	if shift == nwSrcShift {
		m.NWSrc = tip(addr)
	} else {
		m.NWDst = tip(addr)
	}
	return m
}

func matchNWSrc(addr string, prefix int) openflow.Match { return matchNW(addr, prefix, nwSrcShift) }

// removal is one FLOW_REMOVED as the table reported it.
type removal struct {
	cookie         uint64
	reason         uint8
	packets, bytes uint64
}

// comparable strips what the two tables are allowed to differ in: the
// counters pointer, and LastUsed on entries without an idle timeout (the
// snapshot table does not keep it for those).
func comparable(es []FlowEntry) []FlowEntry {
	for i := range es {
		es[i].live = nil
		if es[i].IdleTimeout == 0 {
			es[i].LastUsed = time.Time{}
		}
	}
	return es
}

// TestFlowTableMatchesReferenceModel drives the snapshot table and the
// locked linear-scan table through the same seeded random histories on a
// shared fake clock: every lookup picks the same entry, every flow-mod and
// sweep reports the same count, the same victims leave with the same
// reasons and counters, and Entries() agree — order included — throughout.
func TestFlowTableMatchesReferenceModel(t *testing.T) {
	matches := []openflow.Match{
		openflow.MatchAll(), matchInPort(1), matchInPort(2), matchInPort(3),
		matchNWSrc("10.0.0.0", 8), matchNWSrc("10.0.0.0", 16), matchNWSrc("10.0.0.0", 24),
		matchNWSrc("10.0.1.0", 24), matchNWSrc("10.0.0.1", 32),
	}
	prios := []uint16{1, 5, 5, 7, 100}
	idles := []time.Duration{0, 0, 10 * time.Second, 30 * time.Second}
	hards := []time.Duration{0, 0, 20 * time.Second, 60 * time.Second}
	srcs := []string{"10.0.0.1", "10.0.0.2", "10.0.1.1", "10.1.0.1", "192.168.0.1"}

	reasons := map[uint8]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := time.Unix(1_700_000_000, 0)
		now := func() time.Time { return clock }
		var gotRem, wantRem []removal
		ft := NewFlowTable(func(e *FlowEntry, r uint8) {
			gotRem = append(gotRem, removal{e.Cookie, r, e.Packets, e.Bytes})
		})
		ft.now = now
		ref := &refFlowTable{now: now, removed: func(e *FlowEntry, r uint8) {
			wantRem = append(wantRem, removal{e.Cookie, r, e.Packets, e.Bytes})
		}}
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		for step := 0; step < 400; step++ {
			clock = clock.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
			m := matches[rng.Intn(len(matches))]
			prio := prios[rng.Intn(len(prios))]
			strict := rng.Intn(2) == 0
			switch op := rng.Intn(10); {
			case op < 3: // ADD
				e := FlowEntry{
					Match: m, Priority: prio, Cookie: uint64(step + 1),
					IdleTimeout: idles[rng.Intn(len(idles))], HardTimeout: hards[rng.Intn(len(hards))],
					Actions: []openflow.Action{openflow.ActionOutput{Port: uint16(step)}},
				}
				if rng.Intn(2) == 0 {
					e.Flags = openflow.FlagSendFlowRem
				}
				if rng.Intn(8) == 0 { // a copied entry brings counters along
					e.Packets, e.Bytes = 3, 300
				}
				e2 := e
				ft.Add(&e)
				ref.Add(&e2)
			case op < 7: // packet
				f := openflow.PacketFields{InPort: uint16(1 + rng.Intn(4)), Headers: pkt.Headers{
					DLVLAN: openflow.VLANNone, DLType: 0x0800,
					NWSrc: tip(srcs[rng.Intn(len(srcs))]), NWDst: tip("10.9.9.9"),
				}}
				size := 60 + rng.Intn(1400)
				got, want := ft.Lookup(f, size), ref.Lookup(f, size)
				if (got == nil) != (want == nil) || got != nil && got.Cookie != want.Cookie {
					fail(step, "lookup chose %+v, reference %+v", got, want)
				}
				if got != nil && !reflect.DeepEqual(got.Actions, want.Actions) {
					fail(step, "lookup actions %v, reference %v", got.Actions, want.Actions)
				}
			case op == 7: // MODIFY
				acts := []openflow.Action{openflow.ActionOutput{Port: uint16(1000 + step)}}
				if got, want := ft.Modify(m, prio, acts, strict), ref.Modify(m, prio, acts, strict); got != want {
					fail(step, "modify(strict=%v) touched %d, reference %d", strict, got, want)
				}
			case op == 8: // DELETE
				if got, want := ft.Delete(m, prio, strict), ref.Delete(m, prio, strict); got != want {
					fail(step, "delete(strict=%v) removed %d, reference %d", strict, got, want)
				}
			default:
				if got, want := ft.Sweep(clock), ref.Sweep(clock); got != want {
					fail(step, "sweep evicted %d, reference %d", got, want)
				}
			}
			if !reflect.DeepEqual(gotRem, wantRem) {
				fail(step, "removals %+v, reference %+v", gotRem, wantRem)
			}
			got, want := comparable(ft.Entries()), comparable(ref.Entries())
			if !reflect.DeepEqual(got, want) {
				fail(step, "entries\n got %+v\nwant %+v", got, want)
			}
			if agg, refAgg := ft.Aggregate(m), ref.Aggregate(m); agg != refAgg {
				fail(step, "aggregate %+v, reference %+v", agg, refAgg)
			}
			if ft.Len() != len(want) {
				fail(step, "len %d, reference %d", ft.Len(), len(want))
			}
		}
		for _, r := range wantRem {
			reasons[r.reason]++
		}
	}
	for _, r := range []uint8{openflow.RemReasonIdleTimeout, openflow.RemReasonHardTimeout, openflow.RemReasonDelete} {
		if reasons[r] < 10 {
			t.Errorf("the histories produced %d removals with reason %d: too few to compare", reasons[r], r)
		}
	}
}

// TestFlowTableConcurrentCounters: lookups racing flow-mods lose no count.
// Four goroutines look entries up while a fifth MODIFYs every entry (the
// looked-up ones too: a replaced entry shares its counters with its
// successor) and ADDs and DELETEs others; afterwards the packet and byte
// counts over Entries() equal the hits. Under -race it also catches any
// plain read of a counter.
func TestFlowTableConcurrentCounters(t *testing.T) {
	const lookers, perLooker, frameLen = 4, 20000, 100
	ft := NewFlowTable(nil)
	for p := uint16(1); p <= lookers; p++ {
		ft.Add(&FlowEntry{Match: matchInPort(p), Priority: 5, Cookie: uint64(p)})
	}
	var hits atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := uint16(1); p <= lookers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hit, miss := fieldsOnPort(t, p), fieldsOnPort(t, 99)
			for i := 0; i < perLooker; i++ {
				if ft.Lookup(hit, frameLen) != nil {
					hits.Add(1)
				}
				if ft.Lookup(miss, frameLen) != nil {
					t.Error("lookup on an unmatched port hit")
					return
				}
			}
		}()
	}
	modder := make(chan struct{})
	go func() {
		defer close(modder)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			other := matchInPort(uint16(10 + i%8))
			switch i % 4 {
			case 0:
				ft.Modify(openflow.MatchAll(), 0, []openflow.Action{openflow.ActionOutput{Port: uint16(i)}}, false)
			case 1:
				ft.Add(&FlowEntry{Match: other, Priority: uint16(1 + i%9), Cookie: 100})
			case 2:
				ft.Modify(matchInPort(uint16(1+i%lookers)), 5, nil, true)
			case 3:
				ft.Delete(other, 0, false)
			}
			ft.Entries()
			ft.Aggregate(openflow.MatchAll())
		}
	}()
	wg.Wait()
	close(stop)
	<-modder
	var packets, bytes uint64
	for _, e := range ft.Entries() {
		packets += e.Packets
		bytes += e.Bytes
	}
	if want := hits.Load(); want != lookers*perLooker || packets != want || bytes != want*frameLen {
		t.Errorf("entries count %d packets / %d bytes after %d hits (of %d lookups)", packets, bytes, want, lookers*perLooker)
	}
	if agg := ft.Aggregate(openflow.MatchAll()); agg.PacketCount != packets {
		t.Errorf("aggregate counts %d packets, entries %d", agg.PacketCount, packets)
	}
}

// TestNonStrictFlowModsRespectPrefixLength is the regression for a
// non-strict DELETE of nw_src=10.0.0.0/24 removing an installed 10.0.0.0/16
// entry: subsumes never looked at the two prefix lengths.
func TestNonStrictFlowModsRespectPrefixLength(t *testing.T) {
	s16, s24 := matchNWSrc("10.0.0.0", 16), matchNWSrc("10.0.0.0", 24)
	ft := NewFlowTable(nil)
	ft.Add(&FlowEntry{Match: s16, Priority: 5, Cookie: 16})
	ft.Add(&FlowEntry{Match: s24, Priority: 5, Cookie: 24})
	f := fieldsOnPort(t, 1) // from 10.0.0.1: inside both
	ft.Lookup(f, 100)
	if agg := ft.Aggregate(s24); agg.FlowCount != 1 {
		t.Errorf("aggregate over the /24 counts %d flows, want the /24 alone", agg.FlowCount)
	}
	if n := ft.Modify(s24, 0, nil, false); n != 1 {
		t.Errorf("non-strict modify of the /24 touched %d entries, want 1", n)
	}
	if n := ft.Delete(s24, 0, false); n != 1 {
		t.Errorf("non-strict delete of the /24 removed %d entries, want 1", n)
	}
	if es := ft.Entries(); len(es) != 1 || es[0].Cookie != 16 {
		t.Fatalf("after deleting the /24: %+v, want the /16 entry to survive", es)
	}
	if n := ft.Delete(s16, 0, false); n != 1 || ft.Len() != 0 {
		t.Errorf("deleting the /16 removed %d, %d left", n, ft.Len())
	}
}
