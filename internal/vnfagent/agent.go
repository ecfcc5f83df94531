// Package vnfagent implements ESCAPE's NETCONF agent: the component that
// manages one VNF container (EE) and its attached switch ports. In the
// original system this is OpenYuma plus the vnf_starter YANG module and
// low-level instrumentation; here the agent is a netconf.Server whose
// RPCs drive internal/netem EEs hosting internal/click VNFs built from
// the internal/catalog templates.
//
// Exposed RPCs (the vnf_starter model): initiateVNF, startVNF, stopVNF,
// connectVNF, disconnectVNF, getVNFInfo. The orchestrator
// (internal/core) is the NETCONF client calling them; "the migration to
// real platforms requires only the adaptation of the instrumentation
// part" — which is exactly the EE method set this agent calls.
package vnfagent

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"escape/internal/catalog"
	"escape/internal/netconf"
	"escape/internal/netem"
	"escape/internal/sg"
	"escape/internal/yang"
)

// Module returns the vnf_starter YANG module modeling the agent's RPCs
// and operational state.
func Module() *yang.Module {
	leaf := func(name string, mandatory bool) *yang.Node {
		return &yang.Node{Name: name, Kind: yang.KindLeaf, Type: yang.TypeString, Mandatory: mandatory}
	}
	return &yang.Module{
		Name:      "vnf_starter",
		Namespace: "urn:escape:vnf_starter",
		Prefix:    "vnfs",
		Body: []*yang.Node{
			{Name: "vnfs", Kind: yang.KindContainer, Description: "Operational state of hosted VNFs.", Children: []*yang.Node{
				{Name: "vnf", Kind: yang.KindList, Key: "id", Children: []*yang.Node{
					leaf("id", false),
					leaf("type", false),
					{Name: "status", Kind: yang.KindLeaf, Type: yang.TypeEnum,
						Enums: []string{"INITIALIZED", "RUNNING", "STOPPED"}},
					{Name: "cpu", Kind: yang.KindLeaf, Type: yang.TypeDecimal64},
					{Name: "mem", Kind: yang.KindLeaf, Type: yang.TypeInt32},
					leaf("control", false),
					{Name: "port", Kind: yang.KindLeafList, Type: yang.TypeString},
				}},
			}},
		},
		RPCs: []*yang.Node{
			{
				Name:        "initiateVNF",
				Description: "Create a VNF container slot from a catalog type.",
				Input: []*yang.Node{
					leaf("vnf_type", true),
					{Name: "option", Kind: yang.KindList, Key: "name", Children: []*yang.Node{
						leaf("name", false), leaf("value", false),
					}},
				},
				Output: []*yang.Node{leaf("vnf_id", false)},
			},
			{
				Name:        "startVNF",
				Description: "Start a previously initiated VNF.",
				Input:       []*yang.Node{leaf("vnf_id", true)},
				Output:      []*yang.Node{leaf("status", false), leaf("control", false)},
			},
			{
				Name:        "stopVNF",
				Description: "Stop a running VNF and release its resources.",
				Input:       []*yang.Node{leaf("vnf_id", true)},
				Output:      []*yang.Node{leaf("status", false)},
			},
			{
				Name:        "connectVNF",
				Description: "Connect a VNF port to a switch; returns the switch port number.",
				Input: []*yang.Node{
					leaf("vnf_id", true), leaf("vnf_port", true), leaf("switch_id", true),
				},
				Output: []*yang.Node{{Name: "port", Kind: yang.KindLeaf, Type: yang.TypeUint32}},
			},
			{
				Name:        "disconnectVNF",
				Description: "Detach a VNF port from its switch.",
				Input:       []*yang.Node{leaf("vnf_id", true), leaf("vnf_port", true)},
			},
			{
				Name:        "getVNFInfo",
				Description: "Return live status of every hosted VNF.",
			},
		},
	}
}

// eeErr translates a crashed-container failure into the structured
// netconf unavailable marker, so the condition crosses the RPC boundary
// as TagResourceUnavailable instead of message text (orchestrator
// teardown classifies on it).
func eeErr(err error) error {
	if err != nil && errors.Is(err, netem.ErrCrashed) {
		return fmt.Errorf("%w: %v", netconf.ErrUnavailable, err)
	}
	return err
}

// vnfRecord tracks agent-side metadata for one VNF.
type vnfRecord struct {
	id       string
	vnfType  string
	ports    []string
	switches map[string]uint16 // device name → switch port number
}

// Agent manages one EE over NETCONF.
type Agent struct {
	ee  *netem.EE
	net *netem.Network
	cat *catalog.Catalog
	srv *netconf.Server

	mu      sync.Mutex
	records map[string]*vnfRecord
	nextID  int

	// connectMu serializes connectVNF RPCs: EE.ConnectVNF binds the
	// switch-side port to the oldest pending device, so two interleaved
	// connects (possible with multiple client sessions) could cross-wire
	// their links without this.
	connectMu sync.Mutex
}

// New builds an agent for an EE. Call ListenAndServe to expose it.
func New(ee *netem.EE, net_ *netem.Network, cat *catalog.Catalog) *Agent {
	a := &Agent{
		ee:      ee,
		net:     net_,
		cat:     cat,
		records: map[string]*vnfRecord{},
	}
	a.srv = netconf.NewServer(Module())
	a.srv.StateProvider = a.stateProvider
	a.srv.Handle("initiateVNF", a.rpcInitiate)
	a.srv.Handle("startVNF", a.rpcStart)
	a.srv.Handle("stopVNF", a.rpcStop)
	a.srv.Handle("connectVNF", a.rpcConnect)
	a.srv.Handle("disconnectVNF", a.rpcDisconnect)
	a.srv.Handle("getVNFInfo", a.rpcGetInfo)
	return a
}

// ListenAndServe starts the NETCONF server ("127.0.0.1:0" for ephemeral).
func (a *Agent) ListenAndServe(addr string) error { return a.srv.ListenAndServe(addr) }

// Addr returns the agent's management address.
func (a *Agent) Addr() string {
	ad := a.srv.Addr()
	if ad == nil {
		return ""
	}
	return ad.String()
}

// Close stops the server.
func (a *Agent) Close() { a.srv.Close() }

// EE returns the managed container.
func (a *Agent) EE() *netem.EE { return a.ee }

func (a *Agent) rpcInitiate(_ *netconf.Session, in *yang.Data) (*yang.Data, error) {
	typeName := in.ChildText("vnf_type")
	typ, err := a.cat.Lookup(typeName)
	if err != nil {
		return nil, err
	}
	params := map[string]string{}
	var cpu sg.CPU
	var mem int
	for _, opt := range in.ChildrenNamed("option") {
		name, value := opt.ChildText("name"), opt.ChildText("value")
		switch name {
		case "cpu":
			if cpu, err = sg.ParseCPU(value); err != nil {
				return nil, fmt.Errorf("bad cpu option: %w", err)
			}
		case "mem":
			if mem, err = strconv.Atoi(value); err != nil {
				return nil, fmt.Errorf("bad mem option %q", value)
			}
		default:
			params[name] = value
		}
	}
	if cpu == 0 {
		cpu = typ.DefaultCPU
	}
	if mem == 0 {
		mem = typ.DefaultMem
	}
	cfg, err := typ.Render(params)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.nextID++
	id := fmt.Sprintf("%s-%s-%d", a.ee.NodeName(), typeName, a.nextID)
	a.mu.Unlock()
	_, err = a.ee.InitVNF(netem.VNFSpec{
		Name:          id,
		ClickConfig:   cfg,
		Devices:       typ.Ports,
		CPU:           cpu,
		Mem:           mem,
		ControlSocket: true,
	})
	if err != nil {
		return nil, eeErr(err)
	}
	a.mu.Lock()
	a.records[id] = &vnfRecord{id: id, vnfType: typeName, ports: typ.Ports, switches: map[string]uint16{}}
	a.mu.Unlock()
	return yang.NewData("output").AddLeaf("vnf_id", id), nil
}

func (a *Agent) rpcStart(_ *netconf.Session, in *yang.Data) (*yang.Data, error) {
	id := in.ChildText("vnf_id")
	if err := a.ee.StartVNF(id); err != nil {
		return nil, eeErr(err)
	}
	v := a.ee.VNF(id)
	if v == nil { // EE crashed between start and readback
		return nil, fmt.Errorf("%w: VNF %q vanished", netconf.ErrUnavailable, id)
	}
	return yang.NewData("output").
		AddLeaf("status", v.State().String()).
		AddLeaf("control", v.ControlAddr()), nil
}

func (a *Agent) rpcStop(_ *netconf.Session, in *yang.Data) (*yang.Data, error) {
	id := in.ChildText("vnf_id")
	err := a.ee.StopVNF(id)
	a.forgetReleased(id)
	if err != nil {
		return nil, eeErr(err)
	}
	return yang.NewData("output").AddLeaf("status", netem.VNFStopped.String()), nil
}

func (a *Agent) rpcConnect(_ *netconf.Session, in *yang.Data) (*yang.Data, error) {
	id := in.ChildText("vnf_id")
	dev := in.ChildText("vnf_port")
	sw := in.ChildText("switch_id")
	a.connectMu.Lock()
	port, err := a.ee.ConnectVNF(a.net, id, dev, sw, netem.LinkConfig{})
	a.connectMu.Unlock()
	if err != nil {
		return nil, eeErr(err)
	}
	a.mu.Lock()
	if rec := a.records[id]; rec != nil {
		rec.switches[dev] = port
	}
	a.mu.Unlock()
	return yang.NewData("output").AddLeaf("port", fmt.Sprint(port)), nil
}

func (a *Agent) rpcDisconnect(_ *netconf.Session, in *yang.Data) (*yang.Data, error) {
	id := in.ChildText("vnf_id")
	dev := in.ChildText("vnf_port")
	err := a.ee.DisconnectVNF(id, dev)
	if err == nil {
		a.mu.Lock()
		if rec := a.records[id]; rec != nil {
			delete(rec.switches, dev)
		}
		a.mu.Unlock()
	}
	a.forgetReleased(id)
	return nil, eeErr(err)
}

// forgetReleased drops a VNF's record once the VNF has left the EE
// (released after stop and disconnect, or lost in a crash), so the agent
// keeps records of live VNFs only.
func (a *Agent) forgetReleased(id string) {
	if a.ee.VNF(id) != nil {
		return
	}
	a.mu.Lock()
	delete(a.records, id)
	a.mu.Unlock()
}

func (a *Agent) rpcGetInfo(_ *netconf.Session, in *yang.Data) (*yang.Data, error) {
	// A crashed container must not look healthy: getVNFInfo doubles as
	// the liveness probe of the resilience layer's failure detector.
	if a.ee.Crashed() {
		return nil, fmt.Errorf("%w: EE %s crashed", netconf.ErrUnavailable, a.ee.NodeName())
	}
	return a.stateProvider(), nil
}

// stateProvider renders the vnfs container for <get>/getVNFInfo.
func (a *Agent) stateProvider() *yang.Data {
	root := yang.NewData("vnfs")
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, name := range a.ee.VNFNames() {
		v := a.ee.VNF(name)
		if v == nil {
			continue
		}
		entry := yang.NewData("vnf").
			AddLeaf("id", name).
			AddLeaf("status", v.State().String()).
			AddLeaf("cpu", v.Spec.CPU.String()).
			AddLeaf("mem", strconv.Itoa(v.Spec.Mem))
		if rec := a.records[name]; rec != nil {
			entry.AddLeaf("type", rec.vnfType)
			for _, p := range rec.ports {
				if swPort, ok := rec.switches[p]; ok {
					entry.AddLeaf("port", fmt.Sprintf("%s:%d", p, swPort))
				} else {
					entry.AddLeaf("port", p)
				}
			}
		}
		if ca := v.ControlAddr(); ca != "" {
			entry.AddLeaf("control", ca)
		}
		root.Add(entry)
	}
	return root
}

// Client wraps a netconf.Client with typed vnf_starter calls: the
// orchestrator side of the management plane.
type Client struct {
	*netconf.Client
}

// DialClient connects to an agent; connect and hello share the NETCONF
// client's per-RPC bound.
func DialClient(addr string) (*Client, error) {
	c, err := netconf.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{Client: c}, nil
}

// The vnf_starter request builders and reply readers. A builder returns
// the operation element for Call or for one slot of a pipelined Calls
// flight; a reader takes that operation's rpc-reply and returns its
// output, or the rpc-error the reply carries. stopVNF and disconnectVNF
// reply with their outcome only, which netconf.ReplyError reads.

// InitiateVNFOp builds initiateVNF for a catalog type; options may carry
// template parameters plus "cpu"/"mem" resource overrides.
func InitiateVNFOp(vnfType string, options map[string]string) *yang.Data {
	op := yang.NewData("initiateVNF").AddLeaf("vnf_type", vnfType)
	for name, value := range options {
		op.Add(yang.NewData("option").AddLeaf("name", name).AddLeaf("value", value))
	}
	return op
}

// StartVNFOp builds startVNF.
func StartVNFOp(vnfID string) *yang.Data {
	return yang.NewData("startVNF").AddLeaf("vnf_id", vnfID)
}

// StopVNFOp builds stopVNF.
func StopVNFOp(vnfID string) *yang.Data {
	return yang.NewData("stopVNF").AddLeaf("vnf_id", vnfID)
}

// ConnectVNFOp builds connectVNF, attaching a VNF device to a switch.
func ConnectVNFOp(vnfID, vnfPort, switchID string) *yang.Data {
	return yang.NewData("connectVNF").
		AddLeaf("vnf_id", vnfID).
		AddLeaf("vnf_port", vnfPort).
		AddLeaf("switch_id", switchID)
}

// DisconnectVNFOp builds disconnectVNF, detaching a VNF device.
func DisconnectVNFOp(vnfID, vnfPort string) *yang.Data {
	return yang.NewData("disconnectVNF").
		AddLeaf("vnf_id", vnfID).
		AddLeaf("vnf_port", vnfPort)
}

// InitiatedVNF reads an initiateVNF reply: the new VNF's id.
func InitiatedVNF(reply *yang.Data) (string, error) {
	if err := netconf.ReplyError(reply); err != nil {
		return "", err
	}
	id := findLeaf(reply, "vnf_id")
	if id == "" {
		return "", fmt.Errorf("vnfagent: reply carried no vnf_id")
	}
	return id, nil
}

// StartedVNF reads a startVNF reply: the VNF's monitoring
// (ClickControl) address.
func StartedVNF(reply *yang.Data) (control string, err error) {
	if err := netconf.ReplyError(reply); err != nil {
		return "", err
	}
	return findLeaf(reply, "control"), nil
}

// ConnectedPort reads a connectVNF reply: the switch port number.
func ConnectedPort(reply *yang.Data) (uint16, error) {
	if err := netconf.ReplyError(reply); err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(findLeaf(reply, "port"), 10, 16)
	if err != nil {
		return 0, fmt.Errorf("vnfagent: bad port in reply: %w", err)
	}
	return uint16(n), nil
}

// InitiateVNF creates a VNF of a catalog type; options may carry template
// parameters plus "cpu"/"mem" resource overrides.
func (c *Client) InitiateVNF(vnfType string, options map[string]string) (string, error) {
	reply, err := c.Call(InitiateVNFOp(vnfType, options))
	if err != nil {
		return "", err
	}
	return InitiatedVNF(reply)
}

// StartVNF starts a VNF and returns its monitoring (ClickControl)
// address.
func (c *Client) StartVNF(vnfID string) (control string, err error) {
	reply, err := c.Call(StartVNFOp(vnfID))
	if err != nil {
		return "", err
	}
	return StartedVNF(reply)
}

// StopVNF stops a VNF.
func (c *Client) StopVNF(vnfID string) error {
	_, err := c.Call(StopVNFOp(vnfID))
	return err
}

// ConnectVNF attaches a VNF device to a switch, returning the switch port
// number.
func (c *Client) ConnectVNF(vnfID, vnfPort, switchID string) (uint16, error) {
	reply, err := c.Call(ConnectVNFOp(vnfID, vnfPort, switchID))
	if err != nil {
		return 0, err
	}
	return ConnectedPort(reply)
}

// DisconnectVNF detaches a VNF device.
func (c *Client) DisconnectVNF(vnfID, vnfPort string) error {
	_, err := c.Call(DisconnectVNFOp(vnfID, vnfPort))
	return err
}

// VNFInfo is one entry of getVNFInfo.
type VNFInfo struct {
	ID      string
	Type    string
	Status  string
	CPU     string
	Mem     string
	Control string
	Ports   []string
}

// GetVNFInfo fetches live VNF state.
func (c *Client) GetVNFInfo() ([]VNFInfo, error) {
	reply, err := c.Call(yang.NewData("getVNFInfo"))
	if err != nil {
		return nil, err
	}
	vnfs := reply.Child("vnfs")
	if vnfs == nil {
		return nil, nil
	}
	var out []VNFInfo
	for _, v := range vnfs.ChildrenNamed("vnf") {
		info := VNFInfo{
			ID:      v.ChildText("id"),
			Type:    v.ChildText("type"),
			Status:  v.ChildText("status"),
			CPU:     v.ChildText("cpu"),
			Mem:     v.ChildText("mem"),
			Control: v.ChildText("control"),
		}
		for _, p := range v.ChildrenNamed("port") {
			info.Ports = append(info.Ports, p.Text)
		}
		out = append(out, info)
	}
	return out, nil
}

// findLeaf searches the reply tree (reply → output → leaf, or directly)
// for a named leaf.
func findLeaf(reply *yang.Data, name string) string {
	if v := reply.ChildText(name); v != "" {
		return v
	}
	if out := reply.Child("output"); out != nil {
		return out.ChildText(name)
	}
	return ""
}
