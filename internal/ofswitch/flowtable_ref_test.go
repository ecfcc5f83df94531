package ofswitch

import (
	"fmt"
	"math/rand"
	"net/netip"
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

// flowModel drives the snapshot table and the reference model through
// the same operations on a shared fake clock, collecting the
// FLOW_REMOVED each reports.
type flowModel struct {
	clock           time.Time
	ft              *FlowTable
	ref             *refFlowTable
	gotRem, wantRem []removal
}

func newFlowModel() *flowModel {
	m := &flowModel{clock: time.Unix(1_700_000_000, 0)}
	now := func() time.Time { return m.clock }
	m.ft = NewFlowTable(func(e *FlowEntry, r uint8) {
		m.gotRem = append(m.gotRem, removal{e.Cookie, r, e.Packets, e.Bytes})
	})
	m.ft.now = now
	m.ref = &refFlowTable{now: now, removed: func(e *FlowEntry, r uint8) {
		m.wantRem = append(m.wantRem, removal{e.Cookie, r, e.Packets, e.Bytes})
	}}
	return m
}

// The values an operation's choice bytes pick from.
var (
	modelMatches = []openflow.Match{
		openflow.MatchAll(), matchInPort(1), matchInPort(2), matchInPort(3),
		matchNWSrc("10.0.0.0", 8), matchNWSrc("10.0.0.0", 16), matchNWSrc("10.0.0.0", 24),
		matchNWSrc("10.0.1.0", 24), matchNWSrc("10.0.0.1", 32),
	}
	modelPrios = []uint16{1, 5, 5, 7, 100}
	modelIdles = []time.Duration{0, 0, 10 * time.Second, 30 * time.Second}
	modelHards = []time.Duration{0, 0, 20 * time.Second, 60 * time.Second}
	modelSrcs  = []netip.Addr{tip("10.0.0.1"), tip("10.0.0.2"), tip("10.0.1.1"), tip("10.1.0.1"), tip("192.168.0.1")}
)

// flowOpBytes is how many choice bytes one operation takes: clock
// advance, kind, match, priority, flags, timeouts, packet, frame size.
const flowOpBytes = 8

// step advances the clock and applies operation n, decoded from
// flowOpBytes choice bytes, to both tables: ADD (3 in 10), packet lookup
// (4), MODIFY (1), DELETE (1) or sweep (1), the flow-mods strict or
// loose. It then compares what the two returned, the removals so far,
// Entries() — order included — and the aggregate over the operation's
// match, and describes the first disagreement.
func (m *flowModel) step(n int, c []byte) error {
	m.clock = m.clock.Add(time.Duration(c[0]) * 16 * time.Millisecond)
	match := modelMatches[int(c[2])%len(modelMatches)]
	prio := modelPrios[int(c[3])%len(modelPrios)]
	strict := c[4]&1 == 0
	switch op := c[1] % 10; {
	case op < 3: // ADD
		e := FlowEntry{
			Match: match, Priority: prio, Cookie: uint64(n + 1),
			IdleTimeout: modelIdles[c[5]%4], HardTimeout: modelHards[c[5]>>2%4],
			Actions: []openflow.Action{openflow.ActionOutput{Port: uint16(n)}},
		}
		if c[4]&2 != 0 {
			e.Flags = openflow.FlagSendFlowRem
		}
		if c[4]>>2%8 == 0 { // a copied entry brings counters along
			e.Packets, e.Bytes = 3, 300
		}
		e2 := e
		m.ft.Add(&e)
		m.ref.Add(&e2)
	case op < 7: // packet
		f := openflow.PacketFields{InPort: uint16(1 + c[6]%4), Headers: pkt.Headers{
			DLVLAN: openflow.VLANNone, DLType: 0x0800,
			NWSrc: modelSrcs[int(c[6]>>2)%len(modelSrcs)], NWDst: tip("10.9.9.9"),
		}}
		size := 60 + int(c[7])*1400/256
		got, want := m.ft.Lookup(f, size), m.ref.Lookup(f, size)
		if (got == nil) != (want == nil) || got != nil && got.Cookie != want.Cookie {
			return fmt.Errorf("lookup chose %+v, reference %+v", got, want)
		}
		if got != nil && !reflect.DeepEqual(got.Actions, want.Actions) {
			return fmt.Errorf("lookup actions %v, reference %v", got.Actions, want.Actions)
		}
	case op == 7: // MODIFY
		acts := []openflow.Action{openflow.ActionOutput{Port: uint16(1000 + n)}}
		if got, want := m.ft.Modify(match, prio, acts, strict), m.ref.Modify(match, prio, acts, strict); got != want {
			return fmt.Errorf("modify(strict=%v) touched %d, reference %d", strict, got, want)
		}
	case op == 8: // DELETE
		if got, want := m.ft.Delete(match, prio, strict), m.ref.Delete(match, prio, strict); got != want {
			return fmt.Errorf("delete(strict=%v) removed %d, reference %d", strict, got, want)
		}
	default:
		if got, want := m.ft.Sweep(m.clock), m.ref.Sweep(m.clock); got != want {
			return fmt.Errorf("sweep evicted %d, reference %d", got, want)
		}
	}
	if !reflect.DeepEqual(m.gotRem, m.wantRem) {
		return fmt.Errorf("removals %+v, reference %+v", m.gotRem, m.wantRem)
	}
	got, want := comparable(m.ft.Entries()), comparable(m.ref.Entries())
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("entries\n got %+v\nwant %+v", got, want)
	}
	if agg, refAgg := m.ft.Aggregate(match), m.ref.Aggregate(match); agg != refAgg {
		return fmt.Errorf("aggregate %+v, reference %+v", agg, refAgg)
	}
	if m.ft.Len() != len(want) {
		return fmt.Errorf("len %d, reference %d", m.ft.Len(), len(want))
	}
	return nil
}

// TestFlowTableMatchesReferenceModel drives the snapshot table and the
// locked linear-scan table through the same seeded random histories on a
// shared fake clock: every lookup picks the same entry, every flow-mod and
// sweep reports the same count, the same victims leave with the same
// reasons and counters, and Entries() agree — order included — throughout.
func TestFlowTableMatchesReferenceModel(t *testing.T) {
	reasons := map[uint8]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newFlowModel()
		var c [flowOpBytes]byte
		for step := 0; step < 400; step++ {
			rng.Read(c[:])
			if err := m.step(step, c[:]); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		for _, r := range m.wantRem {
			reasons[r.reason]++
		}
	}
	for _, r := range []uint8{openflow.RemReasonIdleTimeout, openflow.RemReasonHardTimeout, openflow.RemReasonDelete} {
		if reasons[r] < 10 {
			t.Errorf("the histories produced %d removals with reason %d: too few to compare", reasons[r], r)
		}
	}
}

// FuzzFlowTable is the reference-model comparison over fuzzed histories:
// the input is read flowOpBytes at a time, each chunk one operation.
func FuzzFlowTable(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, ops := range []int{1, 16, 64} {
		seed := make([]byte, ops*flowOpBytes)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newFlowModel()
		for n := 0; len(data) >= flowOpBytes && n < 512; n++ {
			if err := m.step(n, data[:flowOpBytes]); err != nil {
				t.Fatalf("step %d: %v", n, err)
			}
			data = data[flowOpBytes:]
		}
	})
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
