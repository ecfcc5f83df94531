package click_test

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"escape/internal/catalog"
	"escape/internal/click"
	"escape/internal/pkt"
)

// TestPlanCacheIsolatesRouters builds two firewall VNFs from one rendered
// configuration and a third with other parameters. The two share one
// cached plan but no element: traffic through the first moves its
// Firewall, Queue and Counter handlers and leaves the second's at zero.
// The third gets a plan of its own.
func TestPlanCacheIsolatesRouters(t *testing.T) {
	fw, err := catalog.Default().Lookup("firewall")
	if err != nil {
		t.Fatal(err)
	}
	render := func(rules string) string {
		cfg, err := fw.Render(map[string]string{"RULES": rules})
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	type vnf struct {
		r       *click.Router
		in, out *click.ChanDevice
	}
	start := func(cfg string) vnf {
		v := vnf{in: click.NewChanDevice("in", 64), out: click.NewChanDevice("out", 64)}
		v.r, err = click.NewRouter("fw", cfg, click.Options{Devices: map[string]click.Device{"in": v.in, "out": v.out}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go v.r.Run(ctx)
		t.Cleanup(func() { cancel(); v.r.Stop() })
		return v
	}
	cfg := render("allow udp, deny -")
	a, b := start(cfg), start(cfg)
	shared := click.CachedPlan(cfg)
	if shared == nil || !click.BuiltFromOnePlan(a.r, b.r) {
		t.Fatal("the second VNF was not built from the plan the first one cached")
	}

	mac := pkt.MAC{2, 0, 0, 0, 0, 1}
	ip := netip.MustParseAddr("10.0.0.1")
	const frames = 3
	for i := 0; i < frames; i++ {
		frame, err := pkt.BuildUDP(mac, mac, ip, ip, 1000, 2000, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		a.in.In <- frame
		select {
		case <-a.out.Out:
		case <-time.After(5 * time.Second):
			t.Fatal("frame not forwarded")
		}
	}
	queue := ""
	for _, n := range a.r.ElementNames() {
		if el := a.r.Element(n); el.Class() == "Queue" {
			queue = n
		}
	}
	read := func(v vnf, h string) string {
		s, err := v.r.ReadHandler(h)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for h, want := range map[string]string{"fw.passed": "3", "tx.count": "3", queue + ".highwater": "1"} {
		if got := read(a, h); got != want {
			t.Errorf("first VNF %s = %s, want %s", h, got, want)
		}
		if got := read(b, h); got != "0" {
			t.Errorf("second VNF %s = %s after traffic through the first only", h, got)
		}
	}

	other := render("allow tcp, deny -")
	c := start(other)
	if p := click.CachedPlan(other); p == nil || p == shared || click.BuiltFromOnePlan(a.r, c.r) {
		t.Errorf("other parameters: plan %p, shared plan %p; want a plan of its own", p, shared)
	}
	if click.CachedPlan(cfg) != shared {
		t.Error("the shared plan was replaced")
	}
}
