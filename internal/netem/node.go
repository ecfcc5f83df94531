package netem

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"escape/internal/click"
	"escape/internal/ofswitch"
	"escape/internal/pkt"
	"escape/internal/sg"
)

const waitForSwitchesTimeout = 5 * time.Second

// RxFrame is a frame delivered to a host port. Its receiver owns Frame.
type RxFrame struct {
	Port  *Port
	Frame []byte
}

// Host is an end system: it owns addressed ports, answers ARP and ICMP
// echo automatically (a minimal host stack, enough for ping/iperf-style
// tools), and hands every other frame to its consumer channel.
type Host struct {
	name string

	mu    sync.Mutex
	ports []*Port
	rx    chan RxFrame
	// AutoRespond controls the built-in ARP/ICMP-echo responder
	// (default on).
	autoRespondOff bool
}

// NodeName implements Node.
func (h *Host) NodeName() string { return h.name }

// Kind implements Node.
func (*Host) Kind() NodeKind { return kindHost }

// SetAutoRespond toggles the built-in ARP/ICMP responder.
func (h *Host) SetAutoRespond(on bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.autoRespondOff = !on
}

func (h *Host) newPort(n *Network) (*Port, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rx == nil {
		h.rx = make(chan RxFrame, 1024)
	}
	idx := len(h.ports)
	p := &Port{
		Name: fmt.Sprintf("%s-eth%d", h.name, idx),
		Node: h,
		No:   uint16(idx),
		MAC:  n.allocMAC(),
		IP:   n.allocIP(),
	}
	p.recv = func(frame []byte) { h.input(p, frame) }
	h.ports = append(h.ports, p)
	return p, nil
}

// port returns the host's i-th port, or nil.
func (h *Host) port(i int) *Port {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.ports) {
		return nil
	}
	return h.ports[i]
}

// IP returns the address of the host's first port (the common
// single-homed case).
func (h *Host) IP() netip.Addr {
	if p := h.port(0); p != nil {
		return p.IP
	}
	return netip.Addr{}
}

// MAC returns the hardware address of the host's first port.
func (h *Host) MAC() pkt.MAC {
	if p := h.port(0); p != nil {
		return pkt.MAC(p.MAC)
	}
	return pkt.MAC{}
}

// Recv returns the channel of frames not handled by the built-in stack.
func (h *Host) Recv() <-chan RxFrame {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rx == nil {
		h.rx = make(chan RxFrame, 1024)
	}
	return h.rx
}

// Send transmits a frame out of the host's first port. Like a NIC's DMA,
// it copies frame once into a network-owned buffer, with room for an
// 802.1Q tag, and that buffer is the frame all the way along the path: the
// caller keeps frame and may rewrite it for the next send.
func (h *Host) Send(frame []byte) error {
	p := h.port(0)
	if p == nil {
		return fmt.Errorf("netem: host %s has no ports", h.name)
	}
	p.Send(append(make([]byte, 0, len(frame)+4), frame...))
	return nil
}

func (h *Host) input(p *Port, frame []byte) {
	h.mu.Lock()
	auto := !h.autoRespondOff
	rx := h.rx
	h.mu.Unlock()
	if auto && h.autoRespond(p, frame) {
		return
	}
	select {
	case rx <- RxFrame{Port: p, Frame: frame}:
	default: // consumer not keeping up: drop, like a real socket buffer
	}
}

// autoRespond implements the minimal host stack. It reports true when the
// frame was consumed.
func (h *Host) autoRespond(p *Port, frame []byte) bool {
	// Nearly every delivered frame is neither ARP nor ICMP: tell from the
	// parsed headers, and decode only those two for the reply.
	hdr, err := pkt.Parse(frame)
	if err != nil || hdr.DLType != uint16(pkt.EtherTypeARP) && !(hdr.IsIPv4() && hdr.NWProto == uint8(pkt.IPProtoICMP)) {
		return false
	}
	dec := pkt.Decode(frame)
	if a, ok := dec.Layer(pkt.LayerTypeARP).(*pkt.ARP); ok {
		if a.Op == pkt.ARPRequest && a.TargetIP == p.IP {
			reply, err := pkt.BuildARPReply(pkt.MAC(p.MAC), a.SenderMAC, p.IP, a.SenderIP)
			if err == nil {
				p.Send(reply)
			}
			return true
		}
		return false
	}
	ip := dec.IPv4Layer()
	if ip == nil || ip.Dst != p.IP {
		return false
	}
	if ic, ok := dec.Layer(pkt.LayerTypeICMP).(*pkt.ICMP); ok && ic.Type == pkt.ICMPEchoRequest {
		eth := dec.Ethernet()
		reply, err := pkt.BuildICMPEcho(pkt.MAC(p.MAC), eth.Src, p.IP, ip.Src,
			pkt.ICMPEchoReply, ic.Ident, ic.Seq, ic.Payload())
		if err == nil {
			p.Send(reply)
		}
		return true
	}
	return false
}

// SwitchNode wraps an OpenFlow datapath as a topology node.
type SwitchNode struct {
	name string
	sw   *ofswitch.Switch

	mu sync.Mutex
	// used holds the port numbers in use. A new port takes the lowest free
	// one, so the numbers of removed links are handed out again and a
	// switch never runs out of them under connect/disconnect churn.
	used map[uint16]bool
}

func newSwitchNode(name string, dpid uint64) *SwitchNode {
	return &SwitchNode{
		name: name,
		sw:   ofswitch.New(name, dpid),
		used: map[uint16]bool{},
	}
}

// NodeName implements Node.
func (s *SwitchNode) NodeName() string { return s.name }

// Kind implements Node.
func (*SwitchNode) Kind() NodeKind { return KindSwitch }

// DPID returns the datapath id.
func (s *SwitchNode) DPID() uint64 { return s.sw.DPID() }

// Switch exposes the underlying datapath.
func (s *SwitchNode) Switch() *ofswitch.Switch { return s.sw }

// Close stops the datapath.
func (s *SwitchNode) Close() { s.sw.Stop() }

func (s *SwitchNode) newPort(n *Network) (*Port, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	no := uint16(1)
	for s.used[no] {
		no++
	}
	p := &Port{
		Name: fmt.Sprintf("%s-eth%d", s.name, no),
		Node: s,
		No:   no,
		MAC:  n.allocMAC(),
	}
	// Datapath → link.
	err := s.sw.AddPort(&ofswitch.Port{
		No:       no,
		HWAddr:   pkt.MAC(p.MAC),
		Name:     p.Name,
		Transmit: func(frame []byte) { p.Send(frame) },
	})
	if err != nil {
		return nil, err
	}
	s.used[no] = true
	// Link → datapath.
	p.recv = func(frame []byte) { s.sw.Input(no, frame) }
	return p, nil
}

// removePort deletes a port from the datapath and frees its number.
func (s *SwitchNode) removePort(no uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sw.RemovePort(no)
	delete(s.used, no)
}

// EEConfig sizes a VNF container.
type EEConfig struct {
	// CPU is the compute capacity in cores.
	CPU float64
	// Mem is the memory capacity in MB.
	Mem int
}

// VNFSpec describes a VNF to instantiate inside an EE.
type VNFSpec struct {
	// Name is the VNF instance name, unique within the EE.
	Name string
	// ClickConfig is the Click-language configuration.
	ClickConfig string
	// Devices lists the FromDevice/ToDevice names the config references.
	Devices []string
	// CPU/Mem are the resource demands charged against the EE.
	CPU sg.CPU
	Mem int
	// ControlSocket starts a ClickControl server for monitoring when true.
	ControlSocket bool
}

// VNFState is a VNF lifecycle state (mirrors the vnf_starter YANG model).
type VNFState int

// VNF lifecycle states.
const (
	vnfInitialized VNFState = iota
	vnfRunning
	VNFStopped
)

// String implements fmt.Stringer.
func (s VNFState) String() string {
	switch s {
	case vnfInitialized:
		return "INITIALIZED"
	case vnfRunning:
		return "RUNNING"
	case VNFStopped:
		return "STOPPED"
	}
	return "UNKNOWN"
}

// VNF is one network function instance inside an EE. Lifecycle state and
// the runtime handles (router, control socket) are guarded by an
// internal lock: management RPCs and liveness probes read them while
// start/stop/crash paths mutate.
type VNF struct {
	Spec VNFSpec

	mu      sync.Mutex
	state   VNFState
	router  *click.Router
	control *click.ControlSocket
	devices map[string]*eeDevice
	cancel  context.CancelFunc
}

// State reports the VNF's lifecycle state.
func (v *VNF) State() VNFState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}

// stopLocked moves a VNF to Stopped; a running one first has its control
// socket closed, driver cancelled and router stopped. Callers hold v.mu.
// The one stop protocol shared by StopVNF, Crash and the StartVNF
// crash-undo.
func (v *VNF) stopLocked() {
	if v.state == vnfRunning {
		if v.control != nil {
			v.control.Close()
			v.control = nil
		}
		v.cancel()
		v.router.Stop()
	}
	v.state = VNFStopped
}

// connected reports whether any of the VNF's devices is wired to a port.
func (v *VNF) connected() bool {
	for _, d := range v.devices {
		d.mu.Lock()
		p := d.port
		d.mu.Unlock()
		if p != nil {
			return true
		}
	}
	return false
}

// Router exposes the Click router (nil until started).
func (v *VNF) Router() *click.Router {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.router
}

// ControlAddr returns the ClickControl address ("" when disabled or not
// running).
func (v *VNF) ControlAddr() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.control == nil {
		return ""
	}
	return v.control.Addr().String()
}

// eeDevice bridges a Click device to a netem port.
type eeDevice struct {
	name string
	in   chan []byte
	mu   sync.Mutex
	port *Port // nil until connected to a switch
}

// DeviceName implements click.Device.
func (d *eeDevice) DeviceName() string { return d.name }

// Recv implements click.Device.
func (d *eeDevice) Recv() <-chan []byte { return d.in }

// Send implements click.Device.
func (d *eeDevice) Send(frame []byte) error {
	d.mu.Lock()
	p := d.port
	d.mu.Unlock()
	if p == nil {
		return fmt.Errorf("netem: device %s not connected", d.name)
	}
	p.Send(frame)
	return nil
}

// unplug detaches the device and removes the link ConnectVNF made for it,
// switch port included. A device that is not connected is left alone.
func (d *eeDevice) unplug() {
	d.mu.Lock()
	p := d.port
	d.port = nil
	d.mu.Unlock()
	if p == nil {
		return
	}
	if l := p.link.Load(); l != nil {
		l.net.removeLink(l)
	}
}

// EE is a VNF container (execution environment): Mininet-host-plus-cgroups
// in the original, a resource-accounted Click hosting environment here.
type EE struct {
	name string
	cfg  EEConfig

	mu      sync.Mutex
	vnfs    map[string]*VNF
	crashed bool
	// port→device bindings for ports allocated by ConnectVNF.
	pending []*eeDevice // devices awaiting a port at newPort time
}

// ErrCrashed is wrapped by every EE operation rejected because the
// container is crashed.
var ErrCrashed = fmt.Errorf("netem: EE crashed")

// checkAlive returns ErrCrashed while the EE is down. Callers hold e.mu.
func (e *EE) checkAliveLocked() error {
	if e.crashed {
		return fmt.Errorf("%w: %s", ErrCrashed, e.name)
	}
	return nil
}

// Crash kills the container: every hosted VNF dies instantly (routers
// stopped, devices detached, their links and switch ports removed) and
// every subsequent management operation fails with ErrCrashed until
// Restart. The netem fault-injection entry point for EE failures.
func (e *EE) Crash() {
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return
	}
	e.crashed = true
	vnfs := e.vnfs
	e.vnfs = map[string]*VNF{}
	e.pending = nil
	e.mu.Unlock()
	for _, v := range vnfs {
		for _, dev := range v.devices {
			dev.unplug()
		}
		v.mu.Lock()
		v.stopLocked()
		v.mu.Unlock()
	}
}

// Restart boots a crashed EE back up, empty: like a rebooted container it
// hosts no VNFs until the management plane re-initiates them.
//
//lint:ignore deadexport test seam: the recovery tests of core, resilience and escaped undo a Crash with it
func (e *EE) Restart() {
	e.mu.Lock()
	e.crashed = false
	e.mu.Unlock()
}

// Crashed reports whether the EE is currently down.
func (e *EE) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

func newEE(name string, cfg EEConfig) *EE {
	if cfg.CPU <= 0 {
		cfg.CPU = 1
	}
	if cfg.Mem <= 0 {
		cfg.Mem = 512
	}
	return &EE{name: name, cfg: cfg, vnfs: map[string]*VNF{}}
}

// NodeName implements Node.
func (e *EE) NodeName() string { return e.name }

// Kind implements Node.
func (*EE) Kind() NodeKind { return kindEE }

// Config returns the EE's capacity.
//
//lint:ignore deadexport test seam: core's scanView, the reference of ViewFromSpec, reads what netem.Build sized
func (e *EE) Config() EEConfig { return e.cfg }

// AvailableCPU returns uncommitted CPU capacity, counted as the
// orchestrator counts it (sg.CPU), so exact decimal fills fit here too.
//
//lint:ignore deadexport test seam: the agent's and core's unit-boundary tests read what the EE charged
func (e *EE) AvailableCPU() sg.CPU {
	e.mu.Lock()
	defer e.mu.Unlock()
	cpu, _ := e.availableLocked()
	return cpu
}

// availableLocked is the capacity not held by INITIALIZED or RUNNING VNFs.
func (e *EE) availableLocked() (cpu sg.CPU, mem int) {
	cpu, _ = sg.CPUOf(e.cfg.CPU)
	mem = e.cfg.Mem
	for _, v := range e.vnfs {
		if v.State() != VNFStopped {
			cpu -= v.Spec.CPU
			mem -= v.Spec.Mem
		}
	}
	return cpu, mem
}

// InitVNF creates a VNF in the INITIALIZED state: resources are admitted
// and its devices exist, but no packets are processed until StartVNF.
// This is the initiateVNF operation of the vnf_starter model.
func (e *EE) InitVNF(spec VNFSpec) (*VNF, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("netem: VNF needs a name")
	}
	if spec.CPU < 0 || spec.Mem < 0 {
		return nil, fmt.Errorf("netem: negative resource demand")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkAliveLocked(); err != nil {
		return nil, err
	}
	if _, dup := e.vnfs[spec.Name]; dup {
		return nil, fmt.Errorf("netem: VNF %q already exists in %s", spec.Name, e.name)
	}
	cpu, mem := e.availableLocked()
	if spec.CPU > cpu {
		return nil, fmt.Errorf("netem: EE %s out of CPU (%v requested, %v available)", e.name, spec.CPU, cpu)
	}
	if spec.Mem > mem {
		return nil, fmt.Errorf("netem: EE %s out of memory (%d requested, %d available)", e.name, spec.Mem, mem)
	}
	v := &VNF{Spec: spec, state: vnfInitialized, devices: map[string]*eeDevice{}}
	for _, d := range spec.Devices {
		v.devices[d] = &eeDevice{name: d, in: make(chan []byte, 1024)}
	}
	e.vnfs[spec.Name] = v
	return v, nil
}

// VNFNames returns the names of all VNFs in the EE.
func (e *EE) VNFNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.vnfs))
	for name := range e.vnfs {
		out = append(out, name)
	}
	return out
}

// VNF returns a VNF by name, or nil.
func (e *EE) VNF(name string) *VNF {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.vnfs[name]
}

// ConnectVNF wires a VNF device to a switch by creating a link between
// this EE and the switch; it returns the switch-side port number (needed
// by the steering layer). The connectVNF RPC of the vnf_starter model.
func (e *EE) ConnectVNF(n *Network, vnfName, devName, switchName string, cfg LinkConfig) (uint16, error) {
	e.mu.Lock()
	if err := e.checkAliveLocked(); err != nil {
		e.mu.Unlock()
		return 0, err
	}
	v := e.vnfs[vnfName]
	if v == nil {
		e.mu.Unlock()
		return 0, fmt.Errorf("netem: no VNF %q in %s", vnfName, e.name)
	}
	dev := v.devices[devName]
	if dev == nil {
		e.mu.Unlock()
		return 0, fmt.Errorf("netem: VNF %q has no device %q", vnfName, devName)
	}
	dev.mu.Lock()
	connected := dev.port != nil
	dev.mu.Unlock()
	if connected {
		e.mu.Unlock()
		return 0, fmt.Errorf("netem: device %s/%s already connected", vnfName, devName)
	}
	e.pending = append(e.pending, dev)
	e.mu.Unlock()

	link, err := n.AddLink(e.name, switchName, cfg)
	if err != nil {
		// Remove this device specifically: a concurrent Crash may have
		// cleared pending already, so a blind pop could underflow.
		e.mu.Lock()
		for i, d := range e.pending {
			if d == dev {
				e.pending = append(e.pending[:i], e.pending[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
		return 0, err
	}
	eePort, swPort := link.A, link.B
	if eePort.Node != Node(e) {
		eePort, swPort = swPort, eePort
	}
	// Wire the device only if the VNF is still there (mirrors StartVNF): a
	// Crash, or a stop that released the VNF, may have interleaved with
	// the link creation. Under e.mu, so Crash and the release check see
	// either no port or this one.
	e.mu.Lock()
	crashed := e.crashed
	alive := !crashed && e.vnfs[vnfName] == v
	if alive {
		dev.mu.Lock()
		dev.port = eePort
		dev.mu.Unlock()
	}
	e.mu.Unlock()
	if !alive {
		n.removeLink(link)
		if crashed {
			return 0, fmt.Errorf("%w: %s", ErrCrashed, e.name)
		}
		return 0, fmt.Errorf("netem: VNF %q left %s while connecting", vnfName, e.name)
	}
	return swPort.No, nil
}

// DisconnectVNF detaches a device and removes the link ConnectVNF made,
// switch port included. The disconnectVNF RPC. A stopped VNF whose last
// device this was is released (see releaseLocked).
func (e *EE) DisconnectVNF(vnfName, devName string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkAliveLocked(); err != nil {
		return err
	}
	v := e.vnfs[vnfName]
	if v == nil {
		return fmt.Errorf("netem: no VNF %q in %s", vnfName, e.name)
	}
	dev := v.devices[devName]
	if dev == nil {
		return fmt.Errorf("netem: VNF %q has no device %q", vnfName, devName)
	}
	dev.unplug()
	e.releaseLocked(v)
	return nil
}

// releaseLocked removes v from the EE once it is stopped and none of its
// devices is connected: the inverse of InitVNF, completed by whichever of
// StopVNF and DisconnectVNF comes last. Nothing — admission, VNFNames,
// getVNFInfo — pays for a released VNF any more. An initialized VNF
// stays while disconnected: it may still be connected again and
// started. Callers hold e.mu.
func (e *EE) releaseLocked(v *VNF) {
	if v.State() == VNFStopped && !v.connected() && e.vnfs[v.Spec.Name] == v {
		delete(e.vnfs, v.Spec.Name)
	}
}

// newPort binds the next pending ConnectVNF device: frames arriving from
// the switch flow into that device's channel.
func (e *EE) newPort(n *Network) (*Port, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pending) == 0 {
		return nil, fmt.Errorf("netem: EE %s ports are created via ConnectVNF", e.name)
	}
	dev := e.pending[0]
	e.pending = e.pending[1:]
	p := &Port{
		Name: fmt.Sprintf("%s-%s", e.name, dev.name),
		Node: e,
		MAC:  n.allocMAC(),
	}
	p.recv = func(frame []byte) {
		select {
		case dev.in <- frame:
		default: // VNF not draining: drop like a full NIC ring
		}
	}
	return p, nil
}

// StartVNF builds the Click router and starts its driver. The startVNF
// RPC.
func (e *EE) StartVNF(name string) error {
	e.mu.Lock()
	if err := e.checkAliveLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	v := e.vnfs[name]
	e.mu.Unlock()
	if v == nil {
		return fmt.Errorf("netem: no VNF %q in %s", name, e.name)
	}
	if err := e.startVNFLocked(v, name); err != nil {
		return err
	}
	// Re-check liveness: a Crash that slipped between the admission check
	// and the router start has already discarded this VNF from e.vnfs —
	// undo the start so the router does not leak past the crash.
	e.mu.Lock()
	alive := !e.crashed && e.vnfs[name] == v
	e.mu.Unlock()
	if !alive {
		v.mu.Lock()
		v.stopLocked()
		v.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrCrashed, e.name)
	}
	return nil
}

// startVNFLocked builds and launches one VNF's router under its lock.
func (e *EE) startVNFLocked(v *VNF, name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state == vnfRunning {
		return fmt.Errorf("netem: VNF %q already running", name)
	}
	devices := map[string]click.Device{}
	for dn, d := range v.devices {
		devices[dn] = d
	}
	router, err := click.NewRouter(e.name+"/"+name, v.Spec.ClickConfig, click.Options{Devices: devices})
	if err != nil {
		return fmt.Errorf("netem: building VNF %q: %w", name, err)
	}
	v.router = router
	if v.Spec.ControlSocket {
		cs, err := click.NewControlSocket(router, "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("netem: control socket for %q: %w", name, err)
		}
		v.control = cs
	}
	ctx, cancel := context.WithCancel(context.Background())
	v.cancel = cancel
	go router.Run(ctx)
	v.state = vnfRunning
	return nil
}

// StopVNF halts a running or initialized VNF and releases its CPU and
// memory; once no device is connected either, the VNF leaves the EE
// (see releaseLocked). Stopping a stopped VNF fails. The stopVNF RPC.
func (e *EE) StopVNF(name string) error {
	e.mu.Lock()
	if err := e.checkAliveLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	v := e.vnfs[name]
	e.mu.Unlock()
	if v == nil {
		return fmt.Errorf("netem: no VNF %q in %s", name, e.name)
	}
	v.mu.Lock()
	stopped := v.state == VNFStopped
	v.stopLocked()
	v.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if stopped {
		// A Crash interleaving after the admission check stops the VNF
		// itself; report the crash, not a confusing "already stopped" (the
		// crash error is tolerated by teardown, a generic one is not).
		if e.crashed {
			return fmt.Errorf("%w: %s", ErrCrashed, e.name)
		}
		return fmt.Errorf("netem: VNF %q is already stopped", name)
	}
	e.releaseLocked(v)
	return nil
}

// Close stops all running VNFs.
func (e *EE) Close() {
	e.mu.Lock()
	names := make([]string, 0, len(e.vnfs))
	for n, v := range e.vnfs {
		if v.State() == vnfRunning {
			names = append(names, n)
		}
	}
	e.mu.Unlock()
	for _, n := range names {
		_ = e.StopVNF(n)
	}
}
