// Package netem is ESCAPE's network emulation substrate: the Mininet
// substitute of the infrastructure layer. It builds topologies of hosts,
// OpenFlow switches (internal/ofswitch) and VNF containers (execution
// environments, EEs) connected by links with Mininet-TCLink-style
// bandwidth/delay/loss shaping, and wires the switches to a POX-style
// controller (internal/pox) over real OpenFlow connections.
//
// Differences from Mininet are deliberate and documented in DESIGN.md:
// instead of network namespaces and veth pairs, nodes are goroutines and
// links are queue-backed in-process pipes carrying real Ethernet frames;
// instead of cgroups, EEs admit VNFs against their CPU and memory
// capacity.
package netem

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"escape/internal/pox"
)

// NodeKind discriminates node types.
type NodeKind int

// Node kinds.
const (
	kindHost NodeKind = iota
	KindSwitch
	kindEE
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case kindHost:
		return "host"
	case KindSwitch:
		return "switch"
	case kindEE:
		return "ee"
	}
	return "unknown"
}

// Node is anything attachable to links.
type Node interface {
	// NodeName is the unique node name ("h1", "s3", "ee2").
	NodeName() string
	// Kind reports the node type.
	Kind() NodeKind
	// newPort allocates the node-side half of a link endpoint.
	newPort(n *Network) (*Port, error)
}

// Port is one link endpoint on a node. The link binding is atomic: a
// switch-side port becomes visible to the (concurrently flooding)
// datapath as soon as it is allocated, a beat before AddLink wires its
// egress pipe — VNF connects during healing hit exactly that window.
type Port struct {
	Name string // "h1-eth0", "s1-eth2"
	Node Node
	No   uint16 // port index on the node (switch port number)
	MAC  [6]byte
	IP   netip.Addr // valid on host ports
	link atomic.Pointer[Link]
	pipe atomic.Pointer[pipe] // egress pipe (this port → peer)
	recv func(frame []byte)
}

// Send transmits a frame out of this port (towards the link peer) and
// takes ownership of it: the receiving node owns it next. Frames sent
// before the link is wired are dropped, like a NIC with no cable.
func (p *Port) Send(frame []byte) {
	if pp := p.pipe.Load(); pp != nil {
		pp.send(frame)
	}
}

// Options configure a Network.
type Options struct {
	// Controller receives switch connections at Start. Nil = data plane
	// only (no OpenFlow; switches drop on table miss).
	Controller *pox.Controller
}

// Network is an emulated topology.
type Network struct {
	name string
	opts Options

	mu      sync.RWMutex
	nodes   map[string]Node
	order   []string
	links   []*Link
	started bool

	nextIP uint32
	// nextMAC is atomic: ports are created under per-node locks only, so
	// ConnectVNFs on different EEs allocate concurrently.
	nextMAC  atomic.Uint32
	nextDPID uint64
}

// New creates an empty network.
func New(name string, opts Options) *Network {
	return &Network{
		name:   name,
		opts:   opts,
		nodes:  map[string]Node{},
		nextIP: 1, // 10.0.0.1
	}
}

// Name returns the network name.
func (n *Network) Name() string { return n.name }

func (n *Network) addNode(node Node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	name := node.NodeName()
	if _, dup := n.nodes[name]; dup {
		return fmt.Errorf("netem: node %q already exists", name)
	}
	n.nodes[name] = node
	n.order = append(n.order, name)
	return nil
}

// Node returns a node by name, or nil.
func (n *Network) Node(name string) Node {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.nodes[name]
}

// NodeNames returns sorted node names of a kind.
func (n *Network) NodeNames(kind NodeKind) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []string
	for name, node := range n.nodes {
		if node.Kind() == kind {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Links returns all links.
func (n *Network) Links() []*Link {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]*Link(nil), n.links...)
}

// FindLink returns the first link joining two named nodes (in either
// direction), or nil. Fault-injection helpers use it to address a
// specific trunk: n.FindLink("s1", "s2").Fail().
func (n *Network) FindLink(a, b string) *Link {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, l := range n.links {
		an, bn := l.A.Node.NodeName(), l.B.Node.NodeName()
		if (an == a && bn == b) || (an == b && bn == a) {
			return l
		}
	}
	return nil
}

func (n *Network) allocIP() netip.Addr {
	ip := n.nextIP
	n.nextIP++
	return netip.AddrFrom4([4]byte{10, byte(ip >> 16), byte(ip >> 8), byte(ip)})
}

func (n *Network) allocMAC() [6]byte {
	m := n.nextMAC.Add(1) // first MAC is 02:00:00:00:00:01
	return [6]byte{0x02, 0x00, byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)}
}

// AddHost creates a host with one auto-addressed port per link (addresses
// assigned from 10.0.0.0/8).
func (n *Network) AddHost(name string) (*Host, error) {
	h := &Host{name: name}
	if err := n.addNode(h); err != nil {
		return nil, err
	}
	return h, nil
}

// AddSwitch creates an OpenFlow switch with an auto-assigned datapath id.
func (n *Network) AddSwitch(name string) (*SwitchNode, error) {
	n.mu.Lock()
	n.nextDPID++
	dpid := n.nextDPID
	n.mu.Unlock()
	s := newSwitchNode(name, dpid)
	if err := n.addNode(s); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// AddEE creates a VNF container (execution environment).
func (n *Network) AddEE(name string, cfg EEConfig) (*EE, error) {
	ee := newEE(name, cfg)
	if err := n.addNode(ee); err != nil {
		return nil, err
	}
	return ee, nil
}

// AddLink connects two nodes with cfg (the zero LinkConfig is an
// unshaped link). Ports are allocated on both nodes. It may be
// called before or after Start: ESCAPE's orchestrator wires VNF ports into
// switches at deployment time.
func (n *Network) AddLink(a, b string, cfg LinkConfig) (*Link, error) {
	n.mu.RLock()
	na, nb := n.nodes[a], n.nodes[b]
	started := n.started
	n.mu.RUnlock()
	if na == nil {
		return nil, fmt.Errorf("netem: unknown node %q", a)
	}
	if nb == nil {
		return nil, fmt.Errorf("netem: unknown node %q", b)
	}
	pa, err := na.newPort(n)
	if err != nil {
		return nil, fmt.Errorf("netem: adding port on %s: %w", a, err)
	}
	pb, err := nb.newPort(n)
	if err != nil {
		return nil, fmt.Errorf("netem: adding port on %s: %w", b, err)
	}
	l := &Link{A: pa, B: pb, cfg: cfg, net: n}
	l.ab = newPipe(cfg, func(f []byte) { pb.recv(f) }, 1)
	l.ba = newPipe(cfg, func(f []byte) { pa.recv(f) }, 2)
	pa.link.Store(l)
	pb.link.Store(l)
	pa.pipe.Store(l.ab)
	pb.pipe.Store(l.ba)
	n.mu.Lock()
	n.links = append(n.links, l)
	n.mu.Unlock()
	if started {
		l.ab.start()
		l.ba.start()
	}
	return l, nil
}

// removeLink undoes AddLink: the link leaves the topology, both ports
// lose their cable (frames sent on them are dropped, as on an unplugged
// NIC), both pipes stop, and a switch endpoint's port is deleted with a
// PORT_STATUS delete to the controller. Removing a link twice is a no-op.
func (n *Network) removeLink(l *Link) {
	n.mu.Lock()
	i := slices.Index(n.links, l)
	if i >= 0 {
		n.links = slices.Delete(n.links, i, i+1)
	}
	n.mu.Unlock()
	if i < 0 {
		return
	}
	for _, p := range []*Port{l.A, l.B} {
		p.pipe.Store(nil)
		p.link.Store(nil)
	}
	l.ab.close()
	l.ba.close()
	for _, p := range []*Port{l.A, l.B} {
		if sn, ok := p.Node.(*SwitchNode); ok {
			sn.removePort(p.No)
		}
	}
}

// Start launches link pipes and connects every switch to the controller.
func (n *Network) Start() error {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return fmt.Errorf("netem: network already started")
	}
	n.started = true
	links := append([]*Link(nil), n.links...)
	var switches []*SwitchNode
	for _, name := range n.order {
		if s, ok := n.nodes[name].(*SwitchNode); ok {
			switches = append(switches, s)
		}
	}
	n.mu.Unlock()

	for _, l := range links {
		l.ab.start()
		l.ba.start()
	}
	if n.opts.Controller == nil {
		return nil
	}
	for _, s := range switches {
		if err := n.connectSwitch(s); err != nil {
			return err
		}
	}
	return n.opts.Controller.WaitForSwitches(len(switches), waitForSwitchesTimeout)
}

// connectSwitch joins a switch to the controller over an in-process
// net.Pipe: both ends speak the same OpenFlow bytes a TCP channel would.
func (n *Network) connectSwitch(s *SwitchNode) error {
	cside, sside := net.Pipe()
	go n.opts.Controller.Serve(cside)
	return s.sw.ConnectController(sside)
}

// Stop closes every link pipe, switch and EE.
func (n *Network) Stop() {
	n.mu.Lock()
	links := append([]*Link(nil), n.links...)
	var nodes []Node
	for _, name := range n.order {
		nodes = append(nodes, n.nodes[name])
	}
	n.started = false
	n.mu.Unlock()
	for _, l := range links {
		l.ab.close()
		l.ba.close()
	}
	for _, node := range nodes {
		switch v := node.(type) {
		case *SwitchNode:
			v.Close()
		case *EE:
			v.Close()
		}
	}
}
