// Package ofswitch implements an OpenFlow 1.0 switch datapath: the Open
// vSwitch stand-in of ESCAPE's infrastructure layer. A Switch owns a
// priority-ordered flow table, a set of ports wired into the emulated
// network (internal/netem), and a control channel to a controller
// (internal/pox) speaking the real OpenFlow wire protocol.
package ofswitch

import (
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

// FlowEntry is one flow-table entry. Once added, an entry is immutable —
// lookups read it without a lock — apart from its live counters, which
// sit behind a pointer so the struct stays plainly copyable. Entries and
// the removed callback hand out copies with Packets, Bytes and LastUsed
// filled in from those counters.
type FlowEntry struct {
	Match       openflow.Match
	Priority    uint16
	Cookie      uint64
	IdleTimeout time.Duration // zero = none
	HardTimeout time.Duration // zero = none
	Flags       uint16
	Actions     []openflow.Action

	Created time.Time
	// LastUsed is kept only for entries with an IdleTimeout, the ones
	// Sweep reads it for; on any other entry it stays at Created, so a
	// lookup that hits a steering rule reads no clock.
	LastUsed time.Time
	// Packets and Bytes given to Add are where the counters start.
	Packets uint64
	Bytes   uint64

	live *flowCounters
}

// flowCounters are an installed entry's live counters. A MODIFY replaces
// the entry and hands the same counters to its successor, so a lookup
// still holding the old snapshot loses no count.
type flowCounters struct {
	packets, bytes atomic.Uint64
	// lastUsed is a duration after Created (so Sweep stays on the
	// monotonic clock); written only when IdleTimeout > 0.
	lastUsed atomic.Int64
}

// snapshot copies e with its counters read, detached from the table.
func (e *FlowEntry) snapshot() FlowEntry {
	c := *e
	c.Packets, c.Bytes = e.live.packets.Load(), e.live.bytes.Load()
	c.LastUsed = e.Created.Add(time.Duration(e.live.lastUsed.Load()))
	c.live = nil
	return c
}

// FlowTable is a priority-ordered OpenFlow 1.0 flow table. Lookups read
// an immutable snapshot and take no lock; flow-mods and sweeps build the
// next snapshot under mu and publish it.
type FlowTable struct {
	mu sync.Mutex // serializes writers
	// timed counts the installed entries with an idle or hard timeout,
	// under mu; a sweep with none to look at returns at once.
	timed int
	// entries is sorted by priority desc, stable insertion order. The
	// slice and the entries it points to are never written once stored.
	entries atomic.Pointer[[]*FlowEntry]
	// removed receives entries evicted by timeout sweeps or deletes when
	// the entry requested SendFlowRem. The switch forwards them as
	// FLOW_REMOVED.
	removed func(*FlowEntry, uint8)
	now     func() time.Time // time.Now; tests inject a clock
}

// NewFlowTable returns an empty table. The removed callback may be nil.
func NewFlowTable(removed func(e *FlowEntry, reason uint8)) *FlowTable {
	t := &FlowTable{removed: removed, now: time.Now}
	t.entries.Store(new([]*FlowEntry))
	return t
}

func (t *FlowTable) load() []*FlowEntry { return *t.entries.Load() }

// Len reports the number of installed entries.
func (t *FlowTable) Len() int { return len(t.load()) }

// Entries returns a snapshot copy of the table (stats requests).
func (t *FlowTable) Entries() []FlowEntry {
	cur := t.load()
	out := make([]FlowEntry, len(cur))
	for i, e := range cur {
		out[i] = e.snapshot()
	}
	return out
}

// Add installs an entry, replacing any entry with identical match and
// priority (OpenFlow ADD semantics). The table keeps e: the caller must
// not write to it afterwards.
func (t *FlowTable) Add(e *FlowEntry) {
	now := t.now()
	e.Created = now
	e.LastUsed = now
	e.live = &flowCounters{}
	e.live.packets.Store(e.Packets)
	e.live.bytes.Store(e.Bytes)
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.load()
	// e goes after the last entry of equal or higher priority, or in the
	// place of the one it replaces.
	at, replaced := len(cur), 0
	for i, old := range cur {
		if old.Priority == e.Priority && old.Match == e.Match {
			at, replaced = i, 1
			break
		}
		if old.Priority < e.Priority {
			at = i
			break
		}
	}
	next := make([]*FlowEntry, 0, len(cur)+1)
	next = append(append(append(next, cur[:at]...), e), cur[at+replaced:]...)
	t.entries.Store(&next)
	t.timed += expires(e)
	if replaced > 0 {
		t.timed -= expires(cur[at])
	}
}

// expires is 1 for an entry with an idle or hard timeout, else 0.
func expires(e *FlowEntry) int {
	if e.IdleTimeout > 0 || e.HardTimeout > 0 {
		return 1
	}
	return 0
}

// Lookup returns the highest-priority entry matching fields and updates
// its counters, or nil on table miss.
func (t *FlowTable) Lookup(f openflow.PacketFields, frameLen int) *FlowEntry {
	return t.lookup(&f, frameLen)
}

// lookup is Lookup on the datapath's own fields, which it does not copy.
func (t *FlowTable) lookup(f *openflow.PacketFields, frameLen int) *FlowEntry {
	for _, e := range t.load() {
		if e.Match.Matches(f) {
			e.live.packets.Add(1)
			e.live.bytes.Add(uint64(frameLen))
			if e.IdleTimeout > 0 {
				e.live.lastUsed.Store(int64(t.now().Sub(e.Created)))
			}
			return e
		}
	}
	return nil
}

// subsumes reports whether a's match is equal to or more general than b's:
// every packet matching b also matches a. Used by non-strict
// MODIFY/DELETE.
func subsumes(a, b openflow.Match) bool {
	probe := openflow.PacketFields{InPort: b.InPort, Headers: pkt.Headers{
		DLSrc: b.DLSrc, DLDst: b.DLDst, DLVLAN: b.DLVLAN,
		VLANPCP: b.DLVLANPCP, DLType: b.DLType, NWTOS: b.NWTOS,
		NWProto: b.NWProto, NWSrc: b.NWSrc, NWDst: b.NWDst,
		TPSrc: b.TPSrc, TPDst: b.TPDst,
	}}
	// a must match b's concrete fields, and a may not be stricter than b
	// on any field b wildcards — for the two address prefixes, not longer.
	if !a.Matches(&probe) || a.NWSrcBits() < b.NWSrcBits() || a.NWDstBits() < b.NWDstBits() {
		return false
	}
	wildOnly := func(bit uint32) bool { return b.Wildcards&bit == 0 || a.Wildcards&bit != 0 }
	for _, bit := range []uint32{
		openflow.WildInPort, openflow.WildDLVLAN, openflow.WildDLSrc,
		openflow.WildDLDst, openflow.WildDLType, openflow.WildNWProto,
		openflow.WildTPSrc, openflow.WildTPDst, openflow.WildDLVLANPCP,
		openflow.WildNWTOS,
	} {
		if !wildOnly(bit) {
			return false
		}
	}
	return true
}

// modify updates actions on matching entries; strict requires equal match
// and priority. Returns the number of entries updated.
func (t *FlowTable) modify(m openflow.Match, priority uint16, actions []openflow.Action, strict bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	next := append([]*FlowEntry(nil), t.load()...)
	n := 0
	for i, e := range next {
		if selects(m, priority, strict, e) {
			mod := *e // shares e.live and keeps e's timeouts, so timed stands
			mod.Actions = actions
			next[i] = &mod
			n++
		}
	}
	if n > 0 {
		t.entries.Store(&next)
	}
	return n
}

// selects reports whether a MODIFY or DELETE for (m, priority) names e.
func selects(m openflow.Match, priority uint16, strict bool, e *FlowEntry) bool {
	if strict {
		return e.Priority == priority && e.Match == m
	}
	return subsumes(m, e.Match)
}

// delete removes matching entries; strict requires equal match and
// priority. Entries flagged SendFlowRem are reported through the removed
// callback. Returns the number of entries removed.
func (t *FlowTable) delete(m openflow.Match, priority uint16, strict bool) int {
	return t.evict(func(e *FlowEntry) (uint8, bool) {
		return openflow.RemReasonDelete, selects(m, priority, strict, e)
	})
}

// sweep evicts entries whose idle or hard timeout has expired and returns
// the number evicted. The switch calls it periodically; on a table of
// entries without timeouts, every steering rule's case, it costs a lock.
func (t *FlowTable) sweep(now time.Time) int {
	t.mu.Lock()
	timed := t.timed
	t.mu.Unlock()
	if timed == 0 {
		return 0
	}
	return t.evict(func(e *FlowEntry) (uint8, bool) {
		switch {
		case e.HardTimeout > 0 && now.Sub(e.Created) >= e.HardTimeout:
			return openflow.RemReasonHardTimeout, true
		case e.IdleTimeout > 0 && now.Sub(e.Created)-time.Duration(e.live.lastUsed.Load()) >= e.IdleTimeout:
			return openflow.RemReasonIdleTimeout, true
		}
		return 0, false
	})
}

// evict publishes the table without the entries doomed picks and reports
// each, with the reason doomed gave, through the removed callback. Nothing
// is allocated until doomed picks one.
func (t *FlowTable) evict(doomed func(*FlowEntry) (reason uint8, ok bool)) int {
	t.mu.Lock()
	cur := t.load()
	var keep, victims []*FlowEntry
	var reasons []uint8
	for i, e := range cur {
		reason, ok := doomed(e)
		switch {
		case ok:
			if victims == nil {
				keep = append(make([]*FlowEntry, 0, len(cur)-1), cur[:i]...)
			}
			victims = append(victims, e)
			reasons = append(reasons, reason)
			t.timed -= expires(e)
		case victims != nil:
			keep = append(keep, e)
		}
	}
	if len(victims) > 0 {
		next := keep // declared here, so only a table that changed escapes
		t.entries.Store(&next)
	}
	t.mu.Unlock()
	for i, e := range victims {
		if t.removed != nil && e.Flags&openflow.FlagSendFlowRem != 0 {
			snap := e.snapshot()
			t.removed(&snap, reasons[i])
		}
	}
	return len(victims)
}

// aggregate sums counters over entries subsumed by m.
func (t *FlowTable) aggregate(m openflow.Match) openflow.AggregateStats {
	var agg openflow.AggregateStats
	for _, e := range t.load() {
		if subsumes(m, e.Match) {
			agg.PacketCount += e.live.packets.Load()
			agg.ByteCount += e.live.bytes.Load()
			agg.FlowCount++
		}
	}
	return agg
}
