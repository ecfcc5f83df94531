package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"escape/internal/click"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/pox"
	"escape/internal/steering"
)

// lineEnv builds h1—s1—s2—…—sN—h2 with the steering component.
func lineEnv(nSwitches int, mode steering.Mode, tcp bool) (*netem.Network, *pox.Controller, *steering.Steering, error) {
	ctrl := pox.NewController()
	st := steering.New(ctrl, mode)
	ctrl.Register(st)
	netMode := netem.ControllerPipe
	if tcp {
		if err := ctrl.ListenAndServe("127.0.0.1:0"); err != nil {
			return nil, nil, nil, err
		}
		netMode = netem.ControllerTCP
	}
	n := netem.New("e5", netem.Options{Controller: ctrl, Mode: netMode})
	for i := 1; i <= nSwitches; i++ {
		if _, err := n.AddSwitch(fmt.Sprintf("s%d", i)); err != nil {
			return nil, nil, nil, err
		}
	}
	n.AddHost("h1")
	n.AddHost("h2")
	// h1 on s1 port 1; trunks si:2→si+1:1 …; h2 appended last.
	if _, err := n.AddLink("h1", "s1", netem.LinkConfig{}); err != nil {
		return nil, nil, nil, err
	}
	for i := 1; i < nSwitches; i++ {
		if _, err := n.AddLink(fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1), netem.LinkConfig{}); err != nil {
			return nil, nil, nil, err
		}
	}
	if _, err := n.AddLink(fmt.Sprintf("s%d", nSwitches), "h2", netem.LinkConfig{}); err != nil {
		return nil, nil, nil, err
	}
	if err := n.Start(); err != nil {
		return nil, nil, nil, err
	}
	return n, ctrl, st, nil
}

// e5Hops builds the port-level path across the line topology.
func e5Hops(n *netem.Network, nSwitches int) []steering.Hop {
	hops := make([]steering.Hop, nSwitches)
	for i := 1; i <= nSwitches; i++ {
		sw := n.Node(fmt.Sprintf("s%d", i)).(*netem.SwitchNode)
		var in, out uint16
		switch {
		case nSwitches == 1:
			in, out = 1, 2
		case i == 1:
			in, out = 1, 2
		case i == nSwitches:
			in, out = 1, 2
		default:
			in, out = 1, 2
		}
		hops[i-1] = steering.Hop{DPID: sw.DPID(), InPort: in, OutPort: out}
	}
	return hops
}

// E5Steering measures chain-path installation: rule count, install
// latency (including barriers) and first-packet latency, across path
// lengths and the design ablations (VLAN vs per-hop rules, pipe vs TCP
// control channel).
func E5Steering(lengths []int) (*Table, error) {
	if len(lengths) == 0 {
		lengths = []int{1, 2, 4, 8}
	}
	t := &Table{
		ID:      "E5",
		Title:   "Steering setup vs path length (mode × transport ablation)",
		Columns: []string{"switches", "mode", "transport", "rules", "install_ms", "first_pkt_ms"},
		Notes:   []string{"shape check: install latency grows linearly with path length; TCP ≳ pipe"},
	}
	for _, L := range lengths {
		for _, mode := range []steering.Mode{steering.ModeVLAN, steering.ModePerHop} {
			for _, tcp := range []bool{false, true} {
				n, ctrl, st, err := lineEnv(L, mode, tcp)
				if err != nil {
					return nil, err
				}
				hops := e5Hops(n, L)
				t0 := time.Now()
				inst, err := st.InstallPath(steering.Path{ID: "p", Hops: hops})
				install := time.Since(t0)
				if err != nil {
					n.Stop()
					ctrl.Close()
					return nil, err
				}
				h1 := n.Node("h1").(*netem.Host)
				h2 := n.Node("h2").(*netem.Host)
				h2.SetAutoRespond(false)
				frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, []byte("x"))
				t1 := time.Now()
				h1.Send(frame)
				var firstPkt time.Duration
				select {
				case <-h2.Recv():
					firstPkt = time.Since(t1)
				case <-time.After(5 * time.Second):
					n.Stop()
					ctrl.Close()
					return nil, fmt.Errorf("experiments: E5 L=%d frame lost", L)
				}
				modeName := "vlan"
				if mode == steering.ModePerHop {
					modeName = "per-hop"
				}
				transport := "pipe"
				if tcp {
					transport = "tcp"
				}
				t.AddRow(fmt.Sprint(L), modeName, transport,
					fmt.Sprint(inst.RuleCount), ms(install), ms(firstPkt))
				n.Stop()
				ctrl.Close()
			}
		}
	}
	return t, nil
}

// chainOfRouters builds L Click forwarder VNFs connected in series via
// shared lock-free frame rings (RingDevice) and returns the entry ring,
// exit ring and the routers. Ring boundaries are what lets the fused
// driver move frames through the whole chain zero-copy; the locked
// drivers run over the same devices via the BatchRecver path, so the E6
// driver comparison isolates scheduling and locking rather than device
// overhead.
func chainOfRouters(L int, driver click.DriverMode) (*click.SPSCRing[[]byte], *click.SPSCRing[[]byte], []*click.Router, error) {
	rings := make([]*click.SPSCRing[[]byte], L+1)
	for i := range rings {
		rings[i] = click.NewSPSCRing[[]byte](4096)
	}
	routers := make([]*click.Router, L)
	for i := 0; i < L; i++ {
		in := &click.RingDevice{Name: "in", In: rings[i]}
		out := &click.RingDevice{Name: "out", Out: rings[i+1]}
		r, err := click.NewRouter(fmt.Sprintf("vnf%d", i),
			`FromDevice(in) -> cnt :: Counter -> Queue(4096) -> ToDevice(out);`,
			click.Options{Driver: driver, Devices: map[string]click.Device{"in": in, "out": out}})
		if err != nil {
			return nil, nil, nil, err
		}
		routers[i] = r
	}
	return rings[0], rings[L], routers, nil
}

// E6ClickDataPlane pushes frames through chains of Click VNFs and
// reports throughput, per-packet latency and steady-state allocations
// under both drivers; fused is each cell's last row, so the table's
// final row is the headline configuration.
func E6ClickDataPlane(lengths []int, frameSizes []int, packets int) (*Table, error) {
	if len(lengths) == 0 {
		lengths = []int{1, 2, 4, 8}
	}
	if len(frameSizes) == 0 {
		frameSizes = []int{64, 512, 1500}
	}
	if packets <= 0 {
		packets = 2000
	}
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("Click data plane: %d frames through VNF chains", packets),
		Columns: []string{"chain_len", "frame_B", "driver", "kpps", "us_per_pkt", "allocs_pkt"},
		Notes: []string{
			"shape check: throughput falls ~1/L in chain length",
			"fused compiles each VNF to a run-to-completion pipeline over lock-free rings (allocs_pkt ~0)",
			"allocs_pkt counts heap allocations per forwarded packet in the post-warmup phase",
		},
	}
	for _, L := range lengths {
		for _, size := range frameSizes {
			for _, d := range []click.DriverMode{click.SingleThreaded, click.Fused} {
				if err := E6Cell(t, L, size, packets, d); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// e6InflightCap bounds packets in flight across the whole chain. It is
// below every queue and ring capacity (4096), so backpressure lives at
// the harness and no queue tail-drops mid-measurement; it also pins the
// packet pool's working set, which is what makes the post-warmup
// allocation count a steady-state number.
const e6InflightCap = 1024

// e6Trace builds the flow-diverse traffic template: 64 UDP flows with
// distinct source ports, padded or trimmed to the requested frame size.
func e6Trace(size int) [][]byte {
	const flows = 64
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	var srcMAC, dstMAC pkt.MAC
	copy(srcMAC[:], []byte{2, 0, 0, 0, 0, 1})
	copy(dstMAC[:], []byte{2, 0, 0, 0, 0, 2})
	out := make([][]byte, flows)
	for i := range out {
		payload := size - 42 // eth 14 + ipv4 20 + udp 8
		if payload < 1 {
			payload = 1
		}
		f, err := pkt.BuildUDP(srcMAC, dstMAC, src, dst, uint16(1000+i), 9, make([]byte, payload))
		if err != nil || len(f) > size {
			f = make([]byte, size)
		}
		for len(f) < size {
			f = append(f, 0)
		}
		out[i] = f
	}
	return out
}

// e6Pump drives n packets through the chain from a single goroutine:
// frames recycle through a free list (the ring path returns the very
// buffers we sent, so steady state allocates nothing), the inflight cap
// provides backpressure, and the deadline catches stalls. Bursts go in
// through one EnqueueBatch publish, and recycled frames skip the
// template copy — the chain forwards them unmodified, so they are still
// valid flow frames; only freshly allocated buffers get stamped.
func e6Pump(entry, exit *click.SPSCRing[[]byte], templates [][]byte, free *[][]byte, size, n int, deadline time.Time) error {
	sent, recvd := 0, 0
	drain := make([][]byte, 0, 256)
	batch := make([][]byte, 0, 256)
	empty := 0
	for recvd < n {
		batch = batch[:0]
		for sent+len(batch) < n && sent+len(batch)-recvd < e6InflightCap && len(batch) < 256 {
			var f []byte
			if fl := *free; len(fl) > 0 {
				f = fl[len(fl)-1]
				*free = fl[:len(fl)-1]
			} else {
				f = make([]byte, size)
				copy(f, templates[(sent+len(batch))%len(templates)])
			}
			batch = append(batch, f)
		}
		if len(batch) > 0 {
			acc := entry.EnqueueBatch(batch)
			sent += acc
			*free = append(*free, batch[acc:]...)
		}
		drain = exit.DequeueBatch(drain[:0], 256)
		if len(drain) == 0 {
			// The deadline check costs a clock read; amortize it over
			// many empty polls so it stays out of the measured path.
			empty++
			if empty%1024 == 0 && time.Now().After(deadline) {
				return fmt.Errorf("experiments: E6 stalled at %d/%d", recvd, n)
			}
			runtime.Gosched()
			continue
		}
		empty = 0
		for _, f := range drain {
			if len(f) == size {
				*free = append(*free, f)
			}
		}
		recvd += len(drain)
	}
	return nil
}

// E6Cell measures one (chain length, frame size, driver) cell and appends
// the row to t: a warmup pass populates pools and rings, then the measured
// pass reports throughput, per-packet time, and heap allocations per
// packet. The unit benchmarks reuse it to run a single configuration
// without the full matrix.
func E6Cell(t *Table, L, size, packets int, driver click.DriverMode) error {
	entry, exit, routers, err := chainOfRouters(L, driver)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, r := range routers {
		go r.Run(ctx)
	}
	templates := e6Trace(size)
	free := make([][]byte, 0, e6InflightCap)
	deadline := time.Now().Add(30 * time.Second)
	if err := e6Pump(entry, exit, templates, &free, size, packets, deadline); err != nil {
		return fmt.Errorf("%w (warmup, driver=%s, L=%d)", err, driver, L)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := e6Pump(entry, exit, templates, &free, size, packets, deadline); err != nil {
		return fmt.Errorf("%w (driver=%s, L=%d)", err, driver, L)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	cancel()
	for _, r := range routers {
		r.Stop()
	}
	kpps := float64(packets) / elapsed.Seconds() / 1000
	perPkt := elapsed / time.Duration(packets)
	allocsPerPkt := float64(m1.Mallocs-m0.Mallocs) / float64(packets)
	t.AddRow(fmt.Sprint(L), fmt.Sprint(size), driver.String(),
		fmt.Sprintf("%.1f", kpps), us(perPkt), fmt.Sprintf("%.2f", allocsPerPkt))
	return nil
}
