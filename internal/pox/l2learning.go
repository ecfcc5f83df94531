package pox

import (
	"sync"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

// L2Learning is the classic POX l2_learning component: it learns source
// MAC → port bindings from PACKET_INs, installs exact-match entries once
// both endpoints are known, and floods unknown destinations. ESCAPE runs
// it alongside the steering component so plain (non-chained) traffic still
// works during demos.
type L2Learning struct {
	// IdleTimeout/HardTimeout apply to installed entries (seconds,
	// OpenFlow semantics). Zero IdleTimeout defaults to 10s like POX.
	IdleTimeout uint16
	HardTimeout uint16
	// Priority of installed entries; steering rules are installed above
	// this so chained traffic bypasses learning. Default 1.
	Priority uint16

	mu     sync.Mutex
	tables map[uint64]map[pkt.MAC]uint16 // dpid -> mac -> port
}

// NewL2Learning returns a learning switch with POX-like defaults.
func NewL2Learning() *L2Learning {
	return &L2Learning{IdleTimeout: 10, Priority: 1, tables: map[uint64]map[pkt.MAC]uint16{}}
}

// ComponentName implements Component.
func (*L2Learning) ComponentName() string { return "l2_learning" }

// HandleConnectionUp implements connectionUpHandler.
func (l *L2Learning) HandleConnectionUp(c *Connection) {
	l.mu.Lock()
	l.tables[c.DPID()] = map[pkt.MAC]uint16{}
	l.mu.Unlock()
}

// HandleConnectionDown implements connectionDownHandler.
func (l *L2Learning) HandleConnectionDown(c *Connection) {
	l.mu.Lock()
	delete(l.tables, c.DPID())
	l.mu.Unlock()
}

// HandlePortStatus implements portStatusHandler: bindings learned on a
// deleted port are forgotten, so a port that later reuses its number
// starts with none.
func (l *L2Learning) HandlePortStatus(c *Connection, ps *openflow.PortStatus) {
	if ps.Reason != openflow.PortReasonDelete {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	table := l.tables[c.DPID()]
	for mac, port := range table {
		if port == ps.Desc.PortNo {
			delete(table, mac)
		}
	}
}

// HandlePacketIn implements packetInHandler.
func (l *L2Learning) HandlePacketIn(c *Connection, pi *openflow.PacketIn) {
	fields, err := openflow.ExtractFields(pi.Data, pi.InPort)
	if err != nil {
		return
	}
	l.mu.Lock()
	table := l.tables[c.DPID()]
	if table == nil {
		table = map[pkt.MAC]uint16{}
		l.tables[c.DPID()] = table
	}
	table[fields.DLSrc] = pi.InPort
	outPort, known := table[fields.DLDst]
	l.mu.Unlock()

	if fields.DLDst.IsMulticast() || !known {
		// Flood; do not install state for broadcast/unknown. A send
		// failure means the connection is going down and readLoop will
		// surface it; there is no learning state to unwind.
		_ = c.sendPacketOut(&openflow.PacketOut{
			BufferID: pi.BufferID,
			InPort:   pi.InPort,
			Actions:  []openflow.Action{openflow.ActionOutput{Port: openflow.PortFlood}},
			Data:     packetOutData(pi),
		})
		return
	}
	if outPort == pi.InPort {
		// Host moved or stale: drop this one, the next miss re-learns.
		return
	}
	// Install the forward entry and release the (possibly buffered)
	// packet through it.
	match := openflow.ExactMatch(fields)
	if err := c.SendFlowMod(&openflow.FlowMod{
		Match:       match,
		Command:     openflow.FCAdd,
		IdleTimeout: l.idle(),
		HardTimeout: l.HardTimeout,
		Priority:    l.priority(),
		BufferID:    pi.BufferID,
		Actions:     []openflow.Action{openflow.ActionOutput{Port: outPort}},
	}); err != nil {
		// Dying connection: don't follow up with a PacketOut the
		// switch will never see; the next miss re-learns.
		return
	}
	if pi.BufferID == openflow.NoBuffer {
		// The frame was not buffered on the switch, so release our
		// copy through the new entry's port. Same failure story as the
		// flood path above.
		_ = c.sendPacketOut(&openflow.PacketOut{
			BufferID: openflow.NoBuffer,
			InPort:   pi.InPort,
			Actions:  []openflow.Action{openflow.ActionOutput{Port: outPort}},
			Data:     pi.Data,
		})
	}
}

func (l *L2Learning) idle() uint16 {
	if l.IdleTimeout == 0 {
		return 10
	}
	return l.IdleTimeout
}

func (l *L2Learning) priority() uint16 {
	if l.Priority == 0 {
		return 1
	}
	return l.Priority
}

// packetOutData returns the data to embed in a PacketOut: nothing when the
// switch buffered the frame, the full frame otherwise.
func packetOutData(pi *openflow.PacketIn) []byte {
	if pi.BufferID != openflow.NoBuffer {
		return nil
	}
	return pi.Data
}
