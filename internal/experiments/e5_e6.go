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

// E5Steering measures chain-path installation across path lengths: rule
// count, install latency (including barriers) and first-packet latency.
func E5Steering(lengths []int) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Steering setup vs path length",
		Columns: []string{"switches", "rules", "install_ms", "first_pkt_ms"},
		Notes:   []string{"shape check: install latency grows linearly with path length"},
	}
	for _, L := range lengths {
		if err := e5Run(t, L); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// e5Run builds a fresh line h1—s1—…—sL—h2 (every switch takes the frame
// in on port 1 and sends it out on port 2), installs one path along it,
// sends one frame through and appends the row. Whatever it built is
// stopped when it returns, on error too.
func e5Run(t *Table, L int) error {
	ctrl := pox.NewController()
	st := steering.New(ctrl)
	ctrl.Register(st)
	n := netem.New("e5", netem.Options{Controller: ctrl})
	defer func() {
		n.Stop()
		ctrl.Close()
	}()
	line := []string{"h1"}
	hops := make([]steering.Hop, L)
	for i := range hops {
		sw, err := n.AddSwitch(fmt.Sprintf("s%d", i+1))
		if err != nil {
			return err
		}
		line = append(line, sw.NodeName())
		hops[i] = steering.Hop{DPID: sw.DPID(), InPort: 1, OutPort: 2}
	}
	line = append(line, "h2")
	h1, err := n.AddHost("h1")
	if err != nil {
		return err
	}
	h2, err := n.AddHost("h2")
	if err != nil {
		return err
	}
	for i := 1; i < len(line); i++ {
		if _, err := n.AddLink(line[i-1], line[i], netem.LinkConfig{}); err != nil {
			return err
		}
	}
	if err := n.Start(); err != nil {
		return err
	}
	t0 := time.Now()
	inst, err := st.InstallPath(steering.Path{ID: "p", Hops: hops})
	install := time.Since(t0)
	if err != nil {
		return err
	}
	h2.SetAutoRespond(false)
	frame, _ := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1, 2, []byte("x"))
	t1 := time.Now()
	h1.Send(frame)
	var firstPkt time.Duration
	select {
	case <-h2.Recv():
		firstPkt = time.Since(t1)
	case <-time.After(5 * time.Second):
		return fmt.Errorf("experiments: E5 L=%d frame lost", L)
	}
	t.AddRow(fmt.Sprint(L), fmt.Sprint(inst.RuleCount), ms(install), ms(firstPkt))
	return nil
}

// e6DeviceDepth is the channel depth of every VNF boundary: what netem.EE
// gives a deployed VNF's devices.
const e6DeviceDepth = 1024

// chainOfRouters builds L Click forwarder VNFs connected in series over
// click.ChanDevice — the device shape netem.EE hands a deployed VNF — and
// returns the entry channel, the exit channel and the routers. The left
// VNF's Out channel is the right VNF's In.
func chainOfRouters(L int) (chan<- []byte, <-chan []byte, []*click.Router, error) {
	chans := make([]chan []byte, L+1)
	for i := range chans {
		chans[i] = make(chan []byte, e6DeviceDepth)
	}
	routers := make([]*click.Router, L)
	for i := 0; i < L; i++ {
		in := &click.ChanDevice{Name: "in", In: chans[i]}
		out := &click.ChanDevice{Name: "out", Out: chans[i+1]}
		r, err := click.NewRouter(fmt.Sprintf("vnf%d", i),
			`FromDevice(in) -> cnt :: Counter -> Queue(4096) -> ToDevice(out);`,
			click.Options{Devices: map[string]click.Device{"in": in, "out": out}})
		if err != nil {
			return nil, nil, nil, err
		}
		routers[i] = r
	}
	return chans[0], chans[L], routers, nil
}

// E6ClickDataPlane pushes frames through chains of Click VNFs and reports
// throughput, per-packet latency and steady-state allocations, one row per
// (chain length, frame size) cell.
func E6ClickDataPlane(lengths []int, frameSizes []int, packets int) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("Click data plane: %d frames through VNF chains", packets),
		Columns: []string{"chain_len", "frame_B", "kpps", "us_per_pkt", "allocs_pkt"},
		Notes: []string{
			"shape check: throughput falls ~1/L in chain length",
			"allocs_pkt counts heap allocations per forwarded packet in the post-warmup phase: one frame buffer per VNF hop",
		},
	}
	for _, L := range lengths {
		for _, size := range frameSizes {
			if err := E6Cell(t, L, size, packets); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// e6InflightCap bounds packets in flight across the whole chain. It is
// below every device and queue capacity, so backpressure lives at the
// harness and nothing tail-drops mid-measurement: every frame sent comes
// out.
const e6InflightCap = e6DeviceDepth / 2

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

// e6Pump drives n packets through the chain from a single goroutine. It
// sends the template frames themselves — FromDevice copies what it reads
// off a device, so the harness allocates nothing — up to the inflight cap,
// then blocks for the next frame off the exit; stall fires when the chain
// stopped delivering.
func e6Pump(entry chan<- []byte, exit <-chan []byte, templates [][]byte, size, n int, stall <-chan time.Time) error {
	sent, recvd := 0, 0
	for recvd < n {
		var tx chan<- []byte // nil, so never ready, when the window is closed
		if sent < n && sent-recvd < e6InflightCap {
			tx = entry
		}
		select {
		case tx <- templates[sent%len(templates)]:
			sent++
		case f := <-exit:
			if len(f) != size {
				return fmt.Errorf("experiments: E6 frame %d came out %d bytes long, sent %d", recvd, len(f), size)
			}
			recvd++
		case <-stall:
			return fmt.Errorf("experiments: E6 stalled at %d/%d", recvd, n)
		}
	}
	return nil
}

// E6Cell measures one (chain length, frame size) cell and appends the row
// to t: a warmup pass populates the packet pool, then the measured pass
// reports throughput, per-packet time, and heap allocations per packet.
func E6Cell(t *Table, L, size, packets int) error {
	entry, exit, routers, err := chainOfRouters(L)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, r := range routers {
		go r.Run(ctx)
	}
	templates := e6Trace(size)
	stall := time.NewTimer(30 * time.Second)
	defer stall.Stop()
	if err := e6Pump(entry, exit, templates, size, packets, stall.C); err != nil {
		return fmt.Errorf("%w (warmup, L=%d)", err, L)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := e6Pump(entry, exit, templates, size, packets, stall.C); err != nil {
		return fmt.Errorf("%w (L=%d)", err, L)
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
	t.AddRow(fmt.Sprint(L), fmt.Sprint(size),
		fmt.Sprintf("%.1f", kpps), us(perPkt), fmt.Sprintf("%.2f", allocsPerPkt))
	return nil
}
