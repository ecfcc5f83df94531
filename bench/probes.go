package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"escape/internal/api"
	"escape/internal/catalog"
	"escape/internal/click"
	"escape/internal/netem"
	"escape/internal/ofswitch"
	"escape/internal/openflow"
	"escape/internal/pkt"
	"escape/internal/pox"
	"escape/internal/sg"
	"escape/internal/steering"
	"escape/internal/vnfagent"
)

// The isolated layer drivers run in every traced run, whatever the
// workload: each calls one layer's public functions directly, on a small
// rig of the benchmark's own, so its reading does not depend on the
// workload except through the frame length and the flow table looked up.

// probeRig is the rig: switch ps1 with hosts pa and pb and EE pee (with
// its NETCONF agent) attached, and hosts pc — pd joined by one link.
type probeRig struct {
	net            *netem.Network
	ctrl           *pox.Controller
	conn           *pox.Connection
	agent          *vnfagent.Agent
	client         *vnfagent.Client
	pa, pb, pc, pd *netem.Host
	inPort         uint16 // pa's port on ps1
}

func startProbeRig() (*probeRig, error) {
	r := &probeRig{ctrl: pox.NewController()}
	r.net = netem.New("probe", netem.Options{Controller: r.ctrl})
	fail := func(err error) (*probeRig, error) {
		r.close()
		return nil, fmt.Errorf("probe rig: %w", err)
	}
	sw, err := r.net.AddSwitch("ps1")
	if err != nil {
		return fail(err)
	}
	hosts := map[string]**netem.Host{"pa": &r.pa, "pb": &r.pb, "pc": &r.pc, "pd": &r.pd}
	for name, dst := range hosts {
		if *dst, err = r.net.AddHost(name); err != nil {
			return fail(err)
		}
	}
	ee, err := r.net.AddEE("pee", netem.EEConfig{CPU: 1 << 20, Mem: 1 << 30})
	if err != nil {
		return fail(err)
	}
	la, err := r.net.AddLink("pa", "ps1", netem.LinkConfig{})
	if err != nil {
		return fail(err)
	}
	lb, err := r.net.AddLink("pb", "ps1", netem.LinkConfig{})
	if err != nil {
		return fail(err)
	}
	if _, err := r.net.AddLink("pc", "pd", netem.LinkConfig{}); err != nil {
		return fail(err)
	}
	if err := r.net.Start(); err != nil {
		return fail(err)
	}
	r.conn = r.ctrl.Connection(sw.DPID())
	if r.conn == nil {
		return fail(fmt.Errorf("switch did not connect"))
	}
	// One steering-priority rule: everything from pa leaves towards pb.
	r.inPort = la.B.No
	match := openflow.MatchAll()
	match.Wildcards &^= openflow.WildInPort
	match.InPort = r.inPort
	err = r.conn.SendFlowMod(&openflow.FlowMod{
		Match: match, Command: openflow.FCAdd, Priority: steering.PrioritySteering,
		BufferID: openflow.NoBuffer, Actions: []openflow.Action{openflow.ActionOutput{Port: lb.B.No}},
	})
	if err == nil {
		err = r.conn.Barrier(5 * time.Second)
	}
	if err != nil {
		return fail(err)
	}
	r.agent = vnfagent.New(ee, r.net, catalog.Default())
	if err := r.agent.ListenAndServe("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	if r.client, err = vnfagent.DialClient(r.agent.Addr()); err != nil {
		return fail(err)
	}
	return r, nil
}

func (r *probeRig) close() {
	if r.client != nil {
		r.client.Close()
	}
	if r.agent != nil {
		r.agent.Close()
	}
	r.net.Stop()
	r.ctrl.Close()
}

// timeEach calls op until the budget is spent (at least 5 times) and
// returns the median call time in microseconds.
func timeEach(budget time.Duration, op func() error) (float64, error) {
	var s sample
	for start := time.Now(); len(s) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		s = append(s, micros(time.Since(t0)))
	}
	return s.median(), nil
}

// timeMany calls op in batches until the budget is spent and returns the
// mean nanoseconds per call: for calls too short to time one by one.
func timeMany(budget time.Duration, op func()) float64 {
	const batch = 256
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
	}
	return float64(time.Since(start)) / float64(n)
}

// chanDev is a channel-backed click.Device, the shape netem.EE hands a
// deployed VNF: a 1024-deep receive channel, frames dropped when full.
type chanDev struct {
	name string
	in   chan []byte
	out  chan []byte
}

func newChanDev(name string) *chanDev {
	// 1024 is the depth of netem's EE device channels.
	return &chanDev{name: name, in: make(chan []byte, 1024), out: make(chan []byte, 1024)}
}

func (d *chanDev) DeviceName() string  { return d.name }
func (d *chanDev) Recv() <-chan []byte { return d.in }
func (d *chanDev) Send(frame []byte) error {
	select {
	case d.out <- frame:
		return nil
	default:
		return click.ErrDeviceFull
	}
}

// vnfProbe runs one catalog VNF type as netem.EE would (default
// click.Options) between two chanDevs. It returns the round trip of one
// frame at a time from idle (µs, median) and the per-frame time with 256
// frames in flight (ns).
func vnfProbe(nf sg.NF, frame []byte, budget time.Duration) (idleUS, nsFrame float64, err error) {
	typ, err := catalog.Default().Lookup(nf.Type)
	if err != nil {
		return 0, 0, err
	}
	cfg, err := typ.Render(nf.Params)
	if err != nil {
		return 0, 0, err
	}
	in, out := newChanDev("in"), newChanDev("out")
	router, err := click.NewRouter("probe/"+nf.Type, cfg, click.Options{Devices: map[string]click.Device{"in": in, "out": out}})
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		router.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	recv := func() error {
		timeout.Reset(lossTimeout)
		select {
		case <-out.out:
			return nil
		case <-timeout.C:
			return fmt.Errorf("probe VNF %s: frame not forwarded", nf.Type)
		}
	}
	send := func() { in.in <- append([]byte(nil), frame...) }

	// Idle: a pause between frames lets the driver fall back into its
	// idle sleep, where a deployed chain's VNFs sit in phase lat. The
	// pause varies so the sends do not lock onto the sleep's period.
	var idle sample
	for start := time.Now(); len(idle) < 5 || time.Since(start) < budget/2; {
		time.Sleep(time.Millisecond + time.Duration(len(idle)*37%200)*2*time.Microsecond)
		t0 := time.Now()
		send()
		if err := recv(); err != nil {
			return 0, 0, err
		}
		idle = append(idle, micros(time.Since(t0)))
	}
	idleUS = idle.median()

	// Saturated: a closed loop with 256 frames in flight.
	const window = 256
	for i := 0; i < window; i++ {
		send()
	}
	n := 0
	start := time.Now()
	for time.Since(start) < budget/2 {
		if err := recv(); err != nil {
			return 0, 0, err
		}
		send()
		n++
	}
	nsFrame = float64(time.Since(start)) / float64(n)
	for i := 0; i < window; i++ {
		if err := recv(); err != nil {
			return 0, 0, err
		}
	}
	return idleUS, nsFrame, nil
}

// hostToHost times frames sent at src and awaited at dst one at a time
// (ns per frame). Unshaped netem links deliver inline, so this is the
// cost of the hops in between on the caller's goroutine.
func hostToHost(src, dst *netem.Host, frame []byte, budget time.Duration) (float64, error) {
	rx := dst.Recv()
	var lost error
	ns := timeMany(budget, func() {
		_ = src.Send(frame) // the rig's hosts have ports
		select {
		case <-rx:
		default:
			lost = fmt.Errorf("probe frame %s → %s not delivered inline", src.NodeName(), dst.NodeName())
		}
	})
	return ns, lost
}

// runProbes runs every isolated driver for a sixtieth of the run's length
// each and records the readings in o. table and fields, when set, are a
// deployed switch's entries and the workload's packet fields for
// ofswitch.lookup_ns; otherwise the rig's one-rule table is looked up.
func runProbes(o *outcome, cfg runConfig, frameLen int, table []ofswitch.FlowEntry, fields openflow.PacketFields) error {
	budget := secs(cfg.seconds / 60)
	out := o.values
	// Collect what the workload left behind first: after deploy_churn the
	// heap holds several hundred MB of garbage, and marking it while the
	// drivers run slows every one of them.
	runtime.GC()
	rig, err := startProbeRig()
	if err != nil {
		return err
	}
	defer rig.close()
	frame, err := hostFrame(rig.pa, rig.pb, 4000, frameLen, nil)
	if err != nil {
		return err
	}

	// api: parsing an intent body, and the WAL on the data directory.
	intent := sg.NewChainGraph("svc", "monitor", "firewall", "dpi")
	bindSAPs(intent, "h0a", "h0b")
	body, err := intent.ToJSON()
	if err != nil {
		return err
	}
	if out["api.parse_us"], err = timeEach(budget, func() error {
		if _, err := sg.FromJSON(body); err != nil {
			return err
		}
		_, _, _, err := api.CanonicalGraph(body)
		return err
	}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.datadir, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := api.OpenStore(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	_, canon, hash, err := api.CanonicalGraph(body)
	if err != nil {
		return err
	}
	var appendUS, forgetUS sample
	for i, start := 0, time.Now(); i < 5 || time.Since(start) < budget; i++ {
		id := fmt.Sprintf("probe/svc%d", i)
		t0 := time.Now()
		_, _, err := store.UpsertIntent(&api.Intent{ID: id, Tenant: "probe", Service: "svc",
			Graph: canon, Hash: hash, Desired: api.DesiredRun}, t0)
		t1 := time.Now()
		if err == nil {
			err = store.Forget(id)
		}
		if err != nil {
			return err
		}
		appendUS = append(appendUS, micros(t1.Sub(t0)))
		forgetUS = append(forgetUS, micros(time.Since(t1)))
	}
	out["api.wal_append_us"], out["api.wal_forget_us"] = appendUS.median(), forgetUS.median()

	// vnfagent over NETCONF, pox over OpenFlow.
	if out["vnfagent.rpc_rtt_us"], err = timeEach(budget, func() error {
		_, err := rig.client.GetVNFInfo()
		return err
	}); err != nil {
		return err
	}
	var upUS, downUS sample
	for i, start := 0, time.Now(); i < 5 || time.Since(start) < budget; i++ {
		t0 := time.Now()
		id, err := rig.client.InitiateVNF("monitor", nil)
		for _, dev := range []string{"in", "out"} {
			if err == nil {
				_, err = rig.client.ConnectVNF(id, dev, "ps1")
			}
		}
		if err == nil {
			_, err = rig.client.StartVNF(id)
		}
		t1 := time.Now()
		if err == nil {
			err = rig.client.StopVNF(id)
		}
		for _, dev := range []string{"in", "out"} {
			if err == nil {
				err = rig.client.DisconnectVNF(id, dev)
			}
		}
		if err != nil {
			return err
		}
		upUS = append(upUS, micros(t1.Sub(t0)))
		downUS = append(downUS, micros(time.Since(t1)))
	}
	out["vnfagent.vnf_up_us"], out["vnfagent.vnf_down_us"] = upUS.median(), downUS.median()
	if out["pox.barrier_rtt_us"], err = timeEach(budget, func() error {
		return rig.conn.Barrier(5 * time.Second)
	}); err != nil {
		return err
	}

	// click: catalog VNFs on their own.
	if out["click.vnf_idle_rtt_us"], out["click.vnf_ns_frame"], err = vnfProbe(sg.NF{Type: "monitor"}, frame, budget); err != nil {
		return err
	}
	if _, out["click.firewall_ns_frame"], err = vnfProbe(chainsMixed1400B.nfs[0], frame, budget); err != nil {
		return err
	}
	if _, out["click.dpi_ns_frame"], err = vnfProbe(chainsMixed1400B.nfs[1], frame, budget); err != nil {
		return err
	}

	// ofswitch, netem, pkt.
	if out["ofswitch.fwd_ns_frame"], err = hostToHost(rig.pa, rig.pb, frame, budget); err != nil {
		return err
	}
	direct, err := hostFrame(rig.pc, rig.pd, 4000, frameLen, nil)
	if err != nil {
		return err
	}
	if out["netem.link_ns_frame"], err = hostToHost(rig.pc, rig.pd, direct, budget); err != nil {
		return err
	}
	entries := table
	if entries == nil {
		entries = rig.net.Node("ps1").(*netem.SwitchNode).Switch().Table().Entries()
		if fields, err = openflow.ExtractFields(frame, rig.inPort); err != nil {
			return err
		}
	}
	ft := ofswitch.NewFlowTable(nil)
	for i := range entries {
		e := entries[i]
		ft.Add(&e)
	}
	missed := false
	out["ofswitch.lookup_ns"] = timeMany(budget, func() {
		if ft.Lookup(fields, frameLen) == nil {
			missed = true
		}
	})
	if missed {
		return fmt.Errorf("probe lookup missed a %d-entry table", len(entries))
	}
	out["pkt.decode_ns"] = timeMany(budget, func() { pkt.Decode(frame) })

	// sg: building the graph the scenario player builds per arrival.
	out["sg.chain_build_us"], _ = timeEach(budget, func() error {
		chainGraph("svc", "sap-a", "sap-b", 3)
		return nil
	})
	return nil
}
