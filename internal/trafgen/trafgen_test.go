package trafgen

import (
	"net/netip"
	"testing"
	"time"

	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/pox"
)

func twoHostNet(t *testing.T) (*netem.Network, *netem.Host, *netem.Host) {
	t.Helper()
	ctrl := pox.NewController()
	ctrl.Register(pox.NewL2Learning())
	topo := &netem.Topo{Switches: []string{"s1"}, Hosts: []netem.HostSpec{{Name: "h1", Switch: "s1"}, {Name: "h2", Switch: "s1"}}}
	n, err := netem.Build(topo, netem.Options{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Stop(); ctrl.Close() })
	return n, n.Node("h1").(*netem.Host), n.Node("h2").(*netem.Host)
}

func TestPingResolveAndEcho(t *testing.T) {
	_, h1, h2 := twoHostNet(t)
	p := &Pinger{Host: h1}
	// netem's TestPingThroughLearningSwitch checks that h2 answers ARP.
	stats, err := p.Ping(h2.IP(), h2.MAC(), 3, 5*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 3 || stats.Received != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.lossPercent() != 0 {
		t.Errorf("loss = %v%%", stats.lossPercent())
	}
	if stats.AvgRTT <= 0 || stats.MinRTT > stats.MaxRTT {
		t.Errorf("rtt stats = %+v", stats)
	}
	if s := stats.String(); s == "" {
		t.Error("empty summary")
	}
}

func TestPingTimeoutCountsLoss(t *testing.T) {
	_, h1, _ := twoHostNet(t)
	p := &Pinger{Host: h1}
	// Ping an address nobody owns: replies never come.
	ghost := h1.IP().Next().Next().Next()
	stats, err := p.Ping(ghost, pkt.MAC{2, 0, 0, 0, 3, 231}, 2, time.Millisecond, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Received != 0 || stats.Sent != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.lossPercent() != 100 {
		t.Errorf("loss = %v%%", stats.lossPercent())
	}
}

func TestLoadGenAndSink(t *testing.T) {
	_, h1, h2 := twoHostNet(t)
	h2.SetAutoRespond(false)
	done := make(chan LoadReport, 1)
	sink := &Sink{Host: h2, Port: 9000}
	go func() { done <- sink.CollectN(50, 5*time.Second) }()
	lg := &LoadGen{
		Host: h1, DstIP: h2.IP(), DstMAC: h2.MAC(),
		SrcPort: 1234, DstPort: 9000, Size: 200, Rate: 5000,
	}
	sent, err := lg.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if sent.Packets != 50 {
		t.Fatalf("sent = %+v", sent)
	}
	got := <-done
	if got.Packets != 50 {
		t.Fatalf("received %d/50", got.Packets)
	}
	if got.Bytes != sent.Bytes {
		t.Errorf("bytes: sent %d received %d", sent.Bytes, got.Bytes)
	}
	if sent.Mbps() <= 0 {
		t.Errorf("mbps = %v", sent.Mbps())
	}
}

func TestSinkPortFilter(t *testing.T) {
	_, h1, h2 := twoHostNet(t)
	h2.SetAutoRespond(false)
	lg1 := &LoadGen{Host: h1, DstIP: h2.IP(), DstMAC: h2.MAC(), SrcPort: 1, DstPort: 7777, Size: 64}
	lg2 := &LoadGen{Host: h1, DstIP: h2.IP(), DstMAC: h2.MAC(), SrcPort: 1, DstPort: 8888, Size: 64}
	if _, err := lg1.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := lg2.Run(10); err != nil {
		t.Fatal(err)
	}
	sink := &Sink{Host: h2, Port: 8888}
	rep := sink.CollectN(10, 2*time.Second)
	if rep.Packets != 10 {
		t.Fatalf("filtered packets = %d, want 10", rep.Packets)
	}
}

func TestLoadGenRatePacing(t *testing.T) {
	_, h1, h2 := twoHostNet(t)
	lg := &LoadGen{Host: h1, DstIP: h2.IP(), DstMAC: h2.MAC(), DstPort: 1, Size: 64, Rate: 1000}
	rep, err := lg.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	// 100 packets at 1000 pps ≈ 100ms.
	if rep.Duration < 50*time.Millisecond {
		t.Errorf("run finished in %v, pacing not applied", rep.Duration)
	}
}

func mustIP(s string) netip.Addr { return netip.MustParseAddr(s) }
