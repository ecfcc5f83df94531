// Package pox implements the OpenFlow controller platform of ESCAPE: a Go
// port of the POX programming model. Components register for events
// (ConnectionUp, PacketIn, FlowRemoved, PortStatus, ConnectionDown) and
// drive switches through Connection methods (flow-mods, packet-outs,
// synchronous stats and barriers).
//
// ESCAPE's traffic-steering application (internal/steering) and the
// classic l2_learning switch (in this package) are components on top of
// this core, exactly mirroring how the original ESCAPE extends POX.
package pox

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/openflow"
)

// Component is anything registered with a Controller. Event interest is
// declared by implementing the optional *Handler interfaces below.
type Component interface {
	// ComponentName identifies the component in logs ("l2_learning").
	ComponentName() string
}

// connectionUpHandler receives an event when a switch completes its
// handshake.
type connectionUpHandler interface {
	HandleConnectionUp(c *Connection)
}

// connectionDownHandler receives an event when a switch's control channel
// closes.
type connectionDownHandler interface {
	HandleConnectionDown(c *Connection)
}

// packetInHandler receives data-plane packets punted to the controller.
type packetInHandler interface {
	HandlePacketIn(c *Connection, pi *openflow.PacketIn)
}

// flowRemovedHandler receives flow-expiry notifications.
type flowRemovedHandler interface {
	HandleFlowRemoved(c *Connection, fr *openflow.FlowRemoved)
}

// portStatusHandler receives port lifecycle events.
type portStatusHandler interface {
	HandlePortStatus(c *Connection, ps *openflow.PortStatus)
}

// Controller is the POX core: it owns switch connections and dispatches
// events to components in registration order.
type Controller struct {
	mu         sync.RWMutex
	components []Component
	conns      map[uint64]*Connection
	// connsChanged is closed, and replaced, whenever conns changes:
	// WaitForSwitches blocks on it instead of polling.
	connsChanged chan struct{}
}

// NewController returns a controller with no components.
func NewController() *Controller {
	return &Controller{conns: map[uint64]*Connection{}, connsChanged: make(chan struct{})}
}

// Register adds a component. Registration order is dispatch order.
func (ct *Controller) Register(c Component) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.components = append(ct.components, c)
}

// Serve performs the controller-side handshake on an established conn
// (netem hands it one end of an in-process net.Pipe per switch) and runs
// its event loop until the connection dies, returning the error that
// ended it. It blocks: callers run it in a goroutine.
func (ct *Controller) Serve(conn net.Conn) error {
	c := &Connection{ctrl: ct, conn: conn, r: bufio.NewReader(conn), pending: map[uint32]chan openflow.Message{}}
	if err := c.handshake(); err != nil {
		conn.Close()
		return err
	}
	ct.mu.Lock()
	ct.conns[c.dpid] = c
	ct.connsChangedLocked()
	ct.mu.Unlock()
	ct.dispatchConnectionUp(c)
	err := c.readLoop()
	ct.mu.Lock()
	if ct.conns[c.dpid] == c {
		delete(ct.conns, c.dpid)
		ct.connsChangedLocked()
	}
	ct.mu.Unlock()
	ct.dispatchConnectionDown(c)
	conn.Close()
	return err
}

// Connection returns the connection for a datapath id, or nil.
func (ct *Controller) Connection(dpid uint64) *Connection {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	return ct.conns[dpid]
}

// connsChangedLocked wakes every WaitForSwitches caller. ct.mu must be
// held for writing.
func (ct *Controller) connsChangedLocked() {
	close(ct.connsChanged)
	ct.connsChanged = make(chan struct{})
}

// WaitForSwitches blocks until n switches are connected or the timeout
// elapses. It wakes when Serve registers or drops a connection.
func (ct *Controller) WaitForSwitches(n int, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		ct.mu.RLock()
		have, changed := len(ct.conns), ct.connsChanged
		ct.mu.RUnlock()
		if have >= n {
			return nil
		}
		select {
		case <-changed:
		case <-timer.C:
			return fmt.Errorf("pox: %d switches did not connect within %v", n, timeout)
		}
	}
}

// Close closes every switch connection; each Serve returns once its
// connection dies.
func (ct *Controller) Close() {
	ct.mu.Lock()
	conns := make([]*Connection, 0, len(ct.conns))
	for _, c := range ct.conns {
		conns = append(conns, c)
	}
	ct.mu.Unlock()
	for _, c := range conns {
		c.conn.Close()
	}
}

func (ct *Controller) snapshotComponents() []Component {
	ct.mu.RLock()
	defer ct.mu.RUnlock()
	return append([]Component(nil), ct.components...)
}

func (ct *Controller) dispatchConnectionUp(c *Connection) {
	for _, comp := range ct.snapshotComponents() {
		if h, ok := comp.(connectionUpHandler); ok {
			h.HandleConnectionUp(c)
		}
	}
}

func (ct *Controller) dispatchConnectionDown(c *Connection) {
	for _, comp := range ct.snapshotComponents() {
		if h, ok := comp.(connectionDownHandler); ok {
			h.HandleConnectionDown(c)
		}
	}
}

// Connection is one switch's control channel, with POX-style helpers.
type Connection struct {
	ctrl  *Controller
	conn  net.Conn
	r     *bufio.Reader // the one reader of conn: handshake, then readLoop
	dpid  uint64
	ports []openflow.PhyPort

	writeMu sync.Mutex
	xid     atomic.Uint32

	pendMu  sync.Mutex
	pending map[uint32]chan openflow.Message
}

// DPID returns the switch datapath id.
func (c *Connection) DPID() uint64 { return c.dpid }

func (c *Connection) handshake() error {
	if err := c.send(&openflow.Hello{}); err != nil {
		return fmt.Errorf("pox: sending hello: %w", err)
	}
	msg, _, err := openflow.ReadMessage(c.r)
	if err != nil {
		return fmt.Errorf("pox: reading hello: %w", err)
	}
	if msg.MsgType() != openflow.TypeHello {
		return fmt.Errorf("pox: expected HELLO, got %s", msg.MsgType())
	}
	if err := c.send(&openflow.FeaturesRequest{}); err != nil {
		return err
	}
	for {
		msg, _, err := openflow.ReadMessage(c.r)
		if err != nil {
			return fmt.Errorf("pox: waiting for features: %w", err)
		}
		if fr, ok := msg.(*openflow.FeaturesReply); ok {
			c.dpid = fr.DatapathID
			c.ports = fr.Ports
			return nil
		}
	}
}

func (c *Connection) readLoop() error {
	for {
		msg, h, err := openflow.ReadMessage(c.r)
		if err != nil {
			return err
		}
		// Synchronous waiters (stats, barrier) get first claim — but only
		// on actual reply types. Switch-initiated events (PACKET_IN,
		// FLOW_REMOVED, PORT_STATUS, ECHO_REQUEST) use the switch's own
		// xid counter and may collide with a pending request xid; they
		// must never be mistaken for a reply.
		switch msg.MsgType() {
		case openflow.TypePacketIn, openflow.TypeFlowRemoved,
			openflow.TypePortStatus, openflow.TypeEchoRequest:
		default:
			c.pendMu.Lock()
			ch, waiting := c.pending[h.XID]
			if waiting {
				delete(c.pending, h.XID)
			}
			c.pendMu.Unlock()
			if waiting {
				ch <- msg
				continue
			}
		}
		switch m := msg.(type) {
		case *openflow.EchoRequest:
			if err := c.sendXID(&openflow.EchoReply{Data: m.Data}, h.XID); err != nil {
				// The write side died; stop reading instead of waiting
				// for the read side to notice.
				return err
			}
		case *openflow.PacketIn:
			for _, comp := range c.ctrl.snapshotComponents() {
				if ph, ok := comp.(packetInHandler); ok {
					ph.HandlePacketIn(c, m)
				}
			}
		case *openflow.FlowRemoved:
			for _, comp := range c.ctrl.snapshotComponents() {
				if fh, ok := comp.(flowRemovedHandler); ok {
					fh.HandleFlowRemoved(c, m)
				}
			}
		case *openflow.PortStatus:
			for _, comp := range c.ctrl.snapshotComponents() {
				if sh, ok := comp.(portStatusHandler); ok {
					sh.HandlePortStatus(c, m)
				}
			}
		}
	}
}

func (c *Connection) send(msg openflow.Message) error {
	return c.sendXID(msg, c.xid.Add(1))
}

func (c *Connection) sendXID(msg openflow.Message, xid uint32) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return openflow.WriteMessage(c.conn, msg, xid)
}

// SendFlowMod installs/modifies/deletes a flow entry.
func (c *Connection) SendFlowMod(fm *openflow.FlowMod) error {
	return c.send(fm)
}

// sendPacketOut injects a packet into the switch.
func (c *Connection) sendPacketOut(po *openflow.PacketOut) error {
	return c.send(po)
}

// request sends msg and waits for the same-xid response.
func (c *Connection) request(msg openflow.Message, timeout time.Duration) (openflow.Message, error) {
	xid := c.xid.Add(1)
	return c.await(msg.MsgType(), xid, openflow.AppendMessage(nil, msg, xid), timeout)
}

// ErrNotSent wraps the error of a write that failed: what it carried may
// not have reached the switch.
var ErrNotSent = errors.New("pox: write failed")

// await writes wire, whose last message is a request of type typ with
// transaction id xid, in one write and waits for the same-xid response.
func (c *Connection) await(typ openflow.MsgType, xid uint32, wire []byte, timeout time.Duration) (openflow.Message, error) {
	ch := make(chan openflow.Message, 1)
	c.pendMu.Lock()
	c.pending[xid] = ch
	c.pendMu.Unlock()
	c.writeMu.Lock()
	//lint:ignore sendunderlock writeMu keeps whole messages whole on the channel, as sendXID does; the switch drains it without ever blocking on its own writes (its outbox)
	_, err := c.conn.Write(wire)
	c.writeMu.Unlock()
	if err != nil {
		c.pendMu.Lock()
		delete(c.pending, xid)
		c.pendMu.Unlock()
		return nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp, nil
	case <-timer.C:
		c.pendMu.Lock()
		delete(c.pending, xid)
		c.pendMu.Unlock()
		return nil, fmt.Errorf("pox: request %s timed out", typ)
	}
}

// Barrier blocks until the switch has processed all preceding messages.
func (c *Connection) Barrier(timeout time.Duration) error {
	return c.FlowModsBarrier(nil, timeout)
}

// FlowModsBarrier writes fms and a barrier request behind them to the
// switch as one buffer, then waits up to timeout for the barrier reply:
// when it returns nil the switch has applied every flow-mod. An error
// from the write wraps ErrNotSent.
func (c *Connection) FlowModsBarrier(fms []*openflow.FlowMod, timeout time.Duration) error {
	var wire []byte
	for _, fm := range fms {
		wire = openflow.AppendMessage(wire, fm, c.xid.Add(1))
	}
	xid := c.xid.Add(1)
	wire = openflow.AppendMessage(wire, &openflow.BarrierRequest{}, xid)
	resp, err := c.await(openflow.TypeBarrierRequest, xid, wire, timeout)
	if err != nil {
		return err
	}
	if resp.MsgType() != openflow.TypeBarrierReply {
		return fmt.Errorf("pox: expected BARRIER_REPLY, got %s", resp.MsgType())
	}
	return nil
}

// FlowStats fetches flow statistics for entries subsumed by match.
func (c *Connection) FlowStats(match openflow.Match, timeout time.Duration) ([]openflow.FlowStats, error) {
	resp, err := c.request(&openflow.StatsRequest{
		StatsType: openflow.StatsFlow, Match: match, OutPort: openflow.PortNone,
	}, timeout)
	if err != nil {
		return nil, err
	}
	sr, ok := resp.(*openflow.StatsReply)
	if !ok {
		return nil, fmt.Errorf("pox: expected STATS_REPLY, got %s", resp.MsgType())
	}
	return sr.Flows, nil
}
