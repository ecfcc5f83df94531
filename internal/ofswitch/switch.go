package ofswitch

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

// Port is one switch port. Transmit is wired by the network emulator to
// the attached link; counters feed port-stats replies.
type Port struct {
	No     uint16
	HWAddr pkt.MAC
	Name   string
	// Transmit sends a frame out of this port and takes ownership of it:
	// the switch never touches a frame it has transmitted. Must be
	// non-blocking or fast; netem link queues satisfy this.
	Transmit func(frame []byte)

	rxPackets, txPackets atomic.Uint64
	rxBytes, txBytes     atomic.Uint64
	rxDropped, txDropped atomic.Uint64

	// linkDown mirrors the carrier state of the attached link: a down
	// port drops traffic in both directions and is reported with
	// PortStateLinkDown in FEATURES_REPLY and PORT_STATUS.
	linkDown atomic.Bool
}

// phyPort renders the port for the wire (features reply, port status).
func (p *Port) phyPort() openflow.PhyPort {
	pp := openflow.PhyPort{PortNo: p.No, HWAddr: p.HWAddr, Name: p.Name}
	if p.linkDown.Load() {
		pp.State = openflow.PortStateLinkDown
	}
	return pp
}

// stats snapshots the port counters.
func (p *Port) stats() openflow.PortStats {
	return openflow.PortStats{
		PortNo:    p.No,
		RxPackets: p.rxPackets.Load(),
		TxPackets: p.txPackets.Load(),
		RxBytes:   p.rxBytes.Load(),
		TxBytes:   p.txBytes.Load(),
		RxDropped: p.rxDropped.Load(),
		TxDropped: p.txDropped.Load(),
	}
}

const (
	// missSendLen is how many bytes of a buffered table-miss packet
	// PACKET_IN embeds (the OpenFlow default).
	missSendLen = 128
	// bufferSlots is the size of the packet buffer behind PACKET_IN
	// buffer ids, reclaimed ring-style.
	bufferSlots = 256
	// sweepInterval is the flow-timeout sweep period.
	sweepInterval = 100 * time.Millisecond
)

// Switch is an OpenFlow 1.0 datapath.
type Switch struct {
	name string
	dpid uint64

	// ports is the port table indexed by port number (nil where no port
	// is): an immutable snapshot that AddPort and RemovePort republish
	// whole under portMu, so every reader takes one atomic load.
	portMu sync.Mutex
	ports  atomic.Pointer[[]*Port]
	table  *FlowTable

	connMu sync.Mutex // guards conn and outbox swap
	conn   net.Conn
	out    *outbox // encoded messages, drained by the writer goroutine
	xid    atomic.Uint32

	bufMu   sync.Mutex
	buffers map[uint32]bufferedPacket
	nextBuf uint32

	stopOnce sync.Once
	stopCh   chan struct{}

	// TableMisses counts packets sent to the controller for lack of a
	// matching entry (observability for benches).
	TableMisses atomic.Uint64
}

type bufferedPacket struct {
	frame  []byte
	inPort uint16
}

// New creates a switch with the given datapath id.
func New(name string, dpid uint64) *Switch {
	s := &Switch{
		name:    name,
		dpid:    dpid,
		buffers: map[uint32]bufferedPacket{},
		stopCh:  make(chan struct{}),
	}
	s.ports.Store(&[]*Port{})
	s.table = NewFlowTable(s.flowRemoved)
	go s.sweepLoop()
	return s
}

// Name returns the switch name (e.g. "s1").
func (s *Switch) Name() string { return s.name }

// DPID returns the datapath id.
func (s *Switch) DPID() uint64 { return s.dpid }

// portTable returns the current port snapshot. It is never written: a
// change publishes a new one.
func (s *Switch) portTable() []*Port { return *s.ports.Load() }

// port returns port no, or nil.
func (s *Switch) port(no uint16) *Port {
	if ps := s.portTable(); int(no) < len(ps) {
		return ps[no]
	}
	return nil
}

// Table exposes the flow table (tests, stats, debugging).
func (s *Switch) Table() *FlowTable { return s.table }

// AddPort registers a port. Safe before or after controller connection;
// a PORT_STATUS add is announced when connected.
func (s *Switch) AddPort(p *Port) error {
	if p.Transmit == nil {
		return fmt.Errorf("ofswitch: port %d has no transmit function", p.No)
	}
	if p.No == 0 || p.No >= openflow.PortMax {
		return fmt.Errorf("ofswitch: invalid port number %d", p.No)
	}
	s.portMu.Lock()
	old := s.portTable()
	if int(p.No) < len(old) && old[p.No] != nil {
		s.portMu.Unlock()
		return fmt.Errorf("ofswitch: duplicate port %d", p.No)
	}
	next := make([]*Port, max(len(old), int(p.No)+1))
	copy(next, old)
	next[p.No] = p
	s.ports.Store(&next)
	s.portMu.Unlock()
	s.sendAsync(&openflow.PortStatus{
		Reason: openflow.PortReasonAdd,
		Desc:   p.phyPort(),
	})
	return nil
}

// RemovePort unregisters a port and announces a PORT_STATUS delete, the
// inverse of AddPort. Unknown ports are ignored. Flow entries naming the
// port stay: removing them is the controller's business, as in OpenFlow.
func (s *Switch) RemovePort(no uint16) {
	s.portMu.Lock()
	p := s.port(no)
	if p != nil {
		next := slices.Clone(s.portTable())
		next[no] = nil
		s.ports.Store(&next)
	}
	s.portMu.Unlock()
	if p == nil {
		return
	}
	s.sendAsync(&openflow.PortStatus{
		Reason: openflow.PortReasonDelete,
		Desc:   p.phyPort(),
	})
}

// SetPortLinkState flips a port's carrier and announces the change to the
// controller as a PORT_STATUS MODIFY — the OpenFlow signal failure
// detectors subscribe to. Unknown ports are ignored. Idempotent: only an
// actual state change is announced.
func (s *Switch) SetPortLinkState(no uint16, down bool) {
	p := s.port(no)
	if p == nil || p.linkDown.Swap(down) == down {
		return
	}
	s.sendAsync(&openflow.PortStatus{
		Reason: openflow.PortReasonModify,
		Desc:   p.phyPort(),
	})
}

// portStats snapshots all port counters ordered by port number.
func (s *Switch) portStats() []openflow.PortStats {
	var out []openflow.PortStats
	for _, p := range s.portTable() {
		if p != nil {
			out = append(out, p.stats())
		}
	}
	return out
}

// Input is the data-plane entry point: frame arrived on port no. Input
// owns frame: it edits it in place and hands it on to the output port, so
// the caller must not touch it afterwards. It is called by netem link
// delivery goroutines.
func (s *Switch) Input(no uint16, frame []byte) {
	port := s.port(no)
	if port == nil {
		return
	}
	if port.linkDown.Load() {
		port.rxDropped.Add(1)
		return
	}
	port.rxPackets.Add(1)
	port.rxBytes.Add(uint64(len(frame)))

	fields, err := openflow.ExtractFields(frame, no)
	if err != nil {
		port.rxDropped.Add(1)
		return
	}
	entry := s.table.lookup(&fields, len(frame))
	if entry == nil {
		s.TableMisses.Add(1)
		s.packetToController(frame, no, openflow.ReasonNoMatch)
		return
	}
	s.applyActions(entry.Actions, frame, no)
}

// applyActions runs an action list on frame, which arrived on inPort. It
// owns frame: set-field actions edit it in place, and the list's last
// output hands it on.
func (s *Switch) applyActions(actions []openflow.Action, frame []byte, inPort uint16) {
	for i, a := range actions {
		switch act := a.(type) {
		case openflow.ActionOutput:
			s.output(act.Port, frame, inPort, act.MaxLen, i == len(actions)-1)
		case openflow.ActionSetVLAN:
			if out, err := pkt.PushVLAN(frame, act.VLAN); err == nil {
				frame = out
			}
		case openflow.ActionStripVLAN:
			if out, err := pkt.PopVLAN(frame); err == nil {
				frame = out
			}
		case openflow.ActionSetDL:
			pkt.SetDLAddr(frame, act.Dst, act.MAC)
		case openflow.ActionSetNW:
			pkt.SetNWAddr(frame, act.Dst, act.Addr)
		case openflow.ActionSetTP:
			pkt.SetTPPort(frame, act.Dst, act.Port)
		}
	}
}

// output transmits frame out of an (possibly special) port. Port.Transmit
// takes its frame, so the last action of a list naming a single port (how
// every steering rule ends) hands over frame itself; an earlier output,
// whose frame later actions go on editing, and every FLOOD or ALL target
// get a copy.
func (s *Switch) output(port uint16, frame []byte, inPort uint16, maxLen uint16, last bool) {
	switch {
	case port == openflow.PortController:
		limit := int(maxLen)
		if limit <= 0 || limit > len(frame) {
			limit = len(frame)
		}
		s.packetToControllerRaw(frame[:limit], len(frame), inPort, openflow.ReasonAction, openflow.NoBuffer)
	case port == openflow.PortFlood, port == openflow.PortAll:
		for no, p := range s.portTable() {
			if uint16(no) != inPort {
				transmit(p, frame, true)
			}
		}
	case port == openflow.PortInPort, port < openflow.PortMax:
		if port == openflow.PortInPort {
			port = inPort
		}
		transmit(s.port(port), frame, !last)
	}
}

// transmit sends frame out of p, which takes it; with copyFrame p gets a
// copy instead, for a caller that goes on using frame. A nil or down port
// drops.
func transmit(p *Port, frame []byte, copyFrame bool) {
	if p == nil {
		return
	}
	if p.linkDown.Load() {
		p.txDropped.Add(1)
		return
	}
	if copyFrame {
		frame = slices.Clone(frame)
	}
	p.txPackets.Add(1)
	p.txBytes.Add(uint64(len(frame)))
	p.Transmit(frame)
}

// packetToController buffers the frame and emits PACKET_IN carrying its
// buffer id and at most missSendLen bytes of it.
func (s *Switch) packetToController(frame []byte, inPort uint16, reason uint8) {
	s.bufMu.Lock()
	// Reclaim a slot ring-style.
	id := s.nextBuf
	s.nextBuf = (s.nextBuf + 1) % bufferSlots
	stored := make([]byte, len(frame))
	copy(stored, frame)
	s.buffers[id] = bufferedPacket{frame: stored, inPort: inPort}
	s.bufMu.Unlock()
	data := frame
	if len(frame) > missSendLen {
		data = frame[:missSendLen]
	}
	s.packetToControllerRaw(data, len(frame), inPort, reason, id)
}

func (s *Switch) packetToControllerRaw(data []byte, totalLen int, inPort uint16, reason uint8, bufID uint32) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.sendAsync(&openflow.PacketIn{
		BufferID: bufID,
		TotalLen: uint16(totalLen),
		InPort:   inPort,
		Reason:   reason,
		Data:     cp,
	})
}

func (s *Switch) takeBuffer(id uint32) (bufferedPacket, bool) {
	if id == openflow.NoBuffer {
		return bufferedPacket{}, false
	}
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	bp, ok := s.buffers[id]
	if ok {
		delete(s.buffers, id)
	}
	return bp, ok
}

func (s *Switch) flowRemoved(e *FlowEntry, reason uint8) {
	dur := time.Since(e.Created)
	s.sendAsync(&openflow.FlowRemoved{
		Match:        e.Match,
		Cookie:       e.Cookie,
		Priority:     e.Priority,
		Reason:       reason,
		DurationSec:  uint32(dur.Seconds()),
		DurationNsec: uint32(dur.Nanoseconds() % 1e9),
		IdleTimeout:  uint16(e.IdleTimeout.Seconds()),
		PacketCount:  e.Packets,
		ByteCount:    e.Bytes,
	})
}

func (s *Switch) sweepLoop() {
	ticker := time.NewTicker(sweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case now := <-ticker.C:
			s.table.sweep(now)
		}
	}
}

// Stop halts background work and closes the controller connection.
func (s *Switch) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopCh)
		s.connMu.Lock()
		if s.conn != nil {
			s.conn.Close()
		}
		s.connMu.Unlock()
	})
}

// --- control channel ---

// outbox is the switch→controller send queue. It has two lanes: replies
// (barrier, stats, features, echo, error — paired with a controller
// request) are unbounded and never dropped, asynchronous events
// (PACKET_IN, FLOW_REMOVED, PORT_STATUS) are bounded and dropped when
// the controller stops draining. Enqueueing never blocks, so the switch
// control loop can always make progress — blocking here would deadlock
// synchronous transports (net.Pipe) when both sides write at once —
// while the reply lane stays lossless under PACKET_IN floods (a dropped
// BarrierReply would turn a burst into a 5s barrier timeout upstairs).
type outbox struct {
	mu        sync.Mutex
	replies   [][]byte
	events    [][]byte
	maxEvents int
	notify    chan struct{}
}

func newOutbox(maxEvents int) *outbox {
	return &outbox{maxEvents: maxEvents, notify: make(chan struct{}, 1)}
}

// push enqueues an encoded message; event pushes report false when the
// event lane is full (the message is dropped).
func (o *outbox) push(buf []byte, reply bool) bool {
	o.mu.Lock()
	if reply {
		o.replies = append(o.replies, buf)
	} else {
		if len(o.events) >= o.maxEvents {
			o.mu.Unlock()
			return false
		}
		o.events = append(o.events, buf)
	}
	o.mu.Unlock()
	select {
	case o.notify <- struct{}{}:
	default:
	}
	return true
}

// pop dequeues the next message, replies first; nil when empty.
func (o *outbox) pop() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n := len(o.replies); n > 0 {
		buf := o.replies[0]
		o.replies = o.replies[1:]
		return buf
	}
	if n := len(o.events); n > 0 {
		buf := o.events[0]
		o.events = o.events[1:]
		return buf
	}
	return nil
}

// ConnectController performs the OpenFlow handshake over conn and starts
// the message loop. It returns after the handshake (HELLO exchange)
// completes; FEATURES negotiation happens inside the loop.
//
// All switch→controller writes flow through an asynchronous outbox so the
// control loop never blocks on a write: required for synchronous
// transports like net.Pipe and protective against slow controllers.
func (s *Switch) ConnectController(conn net.Conn) error {
	out := newOutbox(1024)
	s.connMu.Lock()
	s.conn = conn
	s.out = out
	s.connMu.Unlock()
	go s.writeLoop(conn, out)
	if err := s.send(&openflow.Hello{}); err != nil {
		return fmt.Errorf("ofswitch: sending hello: %w", err)
	}
	msg, _, err := openflow.ReadMessage(conn)
	if err != nil {
		return fmt.Errorf("ofswitch: reading hello: %w", err)
	}
	if msg.MsgType() != openflow.TypeHello {
		return fmt.Errorf("ofswitch: expected HELLO, got %s", msg.MsgType())
	}
	go s.controlLoop(conn)
	return nil
}

func (s *Switch) writeLoop(conn net.Conn, out *outbox) {
	// On exit (stop or dead connection) detach the outbox: its reply
	// lane is unbounded, and with no drainer left further pushes would
	// accumulate forever on a long-lived emulation with link churn.
	defer func() {
		s.connMu.Lock()
		if s.out == out {
			s.out = nil
		}
		s.connMu.Unlock()
	}()
	for {
		buf := out.pop()
		if buf == nil {
			select {
			case <-s.stopCh:
				return
			case <-out.notify:
			}
			continue
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

func (s *Switch) controlLoop(conn net.Conn) {
	for {
		msg, h, err := openflow.ReadMessage(conn)
		if err != nil {
			return
		}
		s.handleMessage(msg, h)
	}
}

func (s *Switch) handleMessage(msg openflow.Message, h openflow.Header) {
	switch m := msg.(type) {
	case *openflow.EchoRequest:
		s.sendXID(&openflow.EchoReply{Data: m.Data}, h.XID)
	case *openflow.FeaturesRequest:
		var ports []openflow.PhyPort
		for _, p := range s.portTable() {
			if p != nil {
				ports = append(ports, p.phyPort())
			}
		}
		s.sendXID(&openflow.FeaturesReply{
			DatapathID: s.dpid,
			NBuffers:   bufferSlots,
			NTables:    1,
			Ports:      ports,
		}, h.XID)
	case *openflow.FlowMod:
		s.handleFlowMod(m, h)
	case *openflow.PacketOut:
		data := m.Data
		inPort := m.InPort
		if m.BufferID != openflow.NoBuffer {
			if bp, ok := s.takeBuffer(m.BufferID); ok {
				data = bp.frame
				if inPort == openflow.PortNone {
					inPort = bp.inPort
				}
			}
		}
		if len(data) > 0 {
			s.applyActions(m.Actions, data, inPort)
		}
	case *openflow.StatsRequest:
		s.handleStats(m, h)
	case *openflow.BarrierRequest:
		// Message handling is serialized on this goroutine, so every
		// preceding message has completed by now.
		s.sendXID(&openflow.BarrierReply{}, h.XID)
	}
}

func (s *Switch) handleFlowMod(m *openflow.FlowMod, h openflow.Header) {
	switch m.Command {
	case openflow.FCAdd:
		s.table.Add(&FlowEntry{
			Match:       m.Match,
			Priority:    m.Priority,
			Cookie:      m.Cookie,
			IdleTimeout: time.Duration(m.IdleTimeout) * time.Second,
			HardTimeout: time.Duration(m.HardTimeout) * time.Second,
			Flags:       m.Flags,
			Actions:     m.Actions,
		})
		// ADD with a buffer id also releases the buffered packet through
		// the new actions.
		if bp, ok := s.takeBuffer(m.BufferID); ok {
			s.applyActions(m.Actions, bp.frame, bp.inPort)
		}
	case openflow.FCModify, openflow.FCModifyStrict:
		s.table.modify(m.Match, m.Priority, m.Actions, m.Command == openflow.FCModifyStrict)
	case openflow.FCDelete, openflow.FCDeleteStrict:
		s.table.delete(m.Match, m.Priority, m.Command == openflow.FCDeleteStrict)
	default:
		s.sendXID(&openflow.Error{ErrType: openflow.ErrTypeFlowModFailed, Code: 0}, h.XID)
	}
}

func (s *Switch) handleStats(m *openflow.StatsRequest, h openflow.Header) {
	reply := &openflow.StatsReply{StatsType: m.StatsType}
	switch m.StatsType {
	case openflow.StatsFlow:
		for _, e := range s.table.Entries() {
			if !subsumes(m.Match, e.Match) {
				continue
			}
			reply.Flows = append(reply.Flows, openflow.FlowStats{
				Match:       e.Match,
				DurationSec: uint32(time.Since(e.Created).Seconds()),
				Priority:    e.Priority,
				IdleTimeout: uint16(e.IdleTimeout.Seconds()),
				HardTimeout: uint16(e.HardTimeout.Seconds()),
				Cookie:      e.Cookie,
				PacketCount: e.Packets,
				ByteCount:   e.Bytes,
				Actions:     e.Actions,
			})
		}
	case openflow.StatsAggregate:
		reply.Aggregate = s.table.aggregate(m.Match)
	case openflow.StatsPort:
		if m.PortNo == openflow.PortNone {
			reply.Ports = s.portStats()
		} else {
			if p := s.port(m.PortNo); p != nil {
				reply.Ports = []openflow.PortStats{p.stats()}
			}
		}
	default:
		s.sendXID(&openflow.Error{ErrType: openflow.ErrTypeBadRequest, Code: 0}, h.XID)
		return
	}
	s.sendXID(reply, h.XID)
}

func (s *Switch) send(msg openflow.Message) error {
	return s.sendXID(msg, s.xid.Add(1))
}

func (s *Switch) sendXID(msg openflow.Message, xid uint32) error {
	s.connMu.Lock()
	out := s.out
	s.connMu.Unlock()
	if out == nil {
		return fmt.Errorf("ofswitch: not connected")
	}
	var reply bool
	switch msg.MsgType() {
	case openflow.TypePacketIn, openflow.TypeFlowRemoved:
		reply = false // async event: droppable under backpressure
	default:
		// Replies (request-paired) and PORT_STATUS use the lossless lane.
		// PORT_STATUS is the sole link-failure signal — the failure
		// detector has no polling fallback, so dropping one under a
		// PACKET_IN flood would hide a dead (or healed) link forever; its
		// volume is bounded by topology churn, not traffic.
		reply = true
	}
	if !out.push(openflow.Encode(msg, xid), reply) {
		// A full event lane means the controller stopped draining;
		// dropping beats deadlocking the data path.
		return fmt.Errorf("ofswitch: control outbox full, dropping %s", msg.MsgType())
	}
	return nil
}

// sendAsync sends when connected and silently drops otherwise (events
// raised before the controller attaches).
func (s *Switch) sendAsync(msg openflow.Message) {
	_ = s.send(msg)
}
