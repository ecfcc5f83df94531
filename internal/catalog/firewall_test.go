package catalog

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"escape/internal/click"
	"escape/internal/pkt"
)

// benchFirewallRules is the rule set chains_mixed_1400B deploys: 15 denies
// that match nothing the benchmark sends, then allow-all.
func benchFirewallRules() []string {
	var rules []string
	for i := 1; i <= 15; i++ {
		rules = append(rules, fmt.Sprintf("deny src host 10.250.0.%d", i))
	}
	return append(rules, "allow -")
}

func newFirewall(t *testing.T, rules ...string) *firewall {
	t.Helper()
	fw := &firewall{}
	if err := fw.Configure(nil, rules); err != nil {
		t.Fatal(err)
	}
	return fw
}

func readHandler(t *testing.T, fw *firewall, name string) string {
	t.Helper()
	for _, h := range fw.Handlers() {
		if h.Name == name {
			return h.Read()
		}
	}
	t.Fatalf("firewall has no handler %q", name)
	return ""
}

// TestFirewallVerdicts: the frame is parsed once and the rules evaluated in
// order against that parse; verdicts, first-match-wins and the per-rule
// hit counts are what evaluating each rule on its own decode gave.
func TestFirewallVerdicts(t *testing.T) {
	udp := func(src string, dport uint16) []byte {
		f, err := pkt.BuildUDP(cmac1, cmac2, netip.MustParseAddr(src), cip2, 999, dport, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	arp, err := arpRequest(cmac1, cip1, cip2)
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		name string
		data []byte
		pass bool
	}
	for _, tc := range []struct {
		name   string
		rules  []string
		frames []frame
		hits   []int // per rule, after all frames
	}{
		{
			name:  "benchmark shape",
			rules: benchFirewallRules(),
			frames: []frame{
				{"udp from an unlisted host", udp("10.0.0.1", 53), true},
				{"udp from the 7th denied host", udp("10.250.0.7", 53), false},
				{"truncated frame", udp("10.250.0.7", 53)[:10], true}, // no IP layer: only "-" matches
				{"truncated IP header", udp("10.250.0.7", 53)[:30], true},
				{"arp", arp, true},
			},
			hits: []int{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 4},
		},
		{
			name: "first match wins",
			rules: []string{
				"allow host 010.0.0.1", // not how an address renders: matches nothing
				"deny udp and dst port 23",
				"allow src host 10.0.0.1",
				"allow arp or dst port 7",
			},
			frames: []frame{
				{"telnet from the allowed host", udp("10.0.0.1", 23), false},
				{"dns from the allowed host", udp("10.0.0.1", 53), true},
				{"dns from another host", udp("10.0.0.2", 53), false}, // implicit deny
				{"echo from another host", udp("10.0.0.2", 7), true},
				{"arp", arp, true},
				{"truncated IP header", udp("10.0.0.1", 53)[:30], false},
			},
			hits: []int{0, 1, 1, 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fw := newFirewall(t, tc.rules...)
			passed, dropped := 0, 0
			for _, f := range tc.frames {
				out := fw.SimpleAction(click.NewPacket(f.data))
				if (out != nil) != f.pass {
					t.Errorf("%s: passed = %v, want %v", f.name, out != nil, f.pass)
				}
				if f.pass {
					passed++
				} else {
					dropped++
				}
				out.Kill()
			}
			if got := readHandler(t, fw, "passed"); got != fmt.Sprint(passed) {
				t.Errorf("passed = %s, want %d", got, passed)
			}
			if got := readHandler(t, fw, "dropped"); got != fmt.Sprint(dropped) {
				t.Errorf("dropped = %s, want %d", got, dropped)
			}
			lines := strings.Split(strings.TrimSpace(readHandler(t, fw, "rules")), "\n")
			if len(lines) != len(tc.hits) {
				t.Fatalf("rules handler lists %d rules, want %d", len(lines), len(tc.hits))
			}
			for i, want := range tc.hits {
				if !strings.HasSuffix(lines[i], fmt.Sprintf("(%d hits)", want)) {
					t.Errorf("rule %d: %q, want %d hits", i, lines[i], want)
				}
			}
		})
	}
}

// TestFirewallParsesOncePerPacket: 16 rules cost one parse, not 16, and
// the parse (pkt.Parse) allocates nothing: with the packet pool warm, a
// packet through the benchmark's rule set costs no allocation at all.
func TestFirewallParsesOncePerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fw := newFirewall(t, benchFirewallRules()...)
	frame := udpWith(t, make([]byte, 1358)) // a 1400-byte frame
	if n := testing.AllocsPerRun(200, func() {
		p := fw.SimpleAction(click.NewPacket(frame))
		if p == nil {
			t.Fatal("benchmark frame denied")
		}
		p.Kill()
	}); n != 0 {
		t.Errorf("a packet through 16 rules costs %v allocations, want 0", n)
	}
}

// arpRequest builds a broadcast who-has query.
func arpRequest(srcMAC pkt.MAC, srcIP, targetIP netip.Addr) ([]byte, error) {
	return pkt.SerializeLayers(
		&pkt.Ethernet{Src: srcMAC, Dst: pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderMAC: srcMAC, SenderIP: srcIP, TargetIP: targetIP},
	)
}
