package core

import (
	"testing"
	"time"

	"escape/internal/netem"
	"escape/internal/openflow"
	"escape/internal/pkt"
	"escape/internal/sg"
	"escape/internal/steering"
)

// TestStitchTagsSteeredAndKeptAcrossHeal: a tenant's chain whose first
// SG link carries an IngressTag and whose last carries an EgressTag is
// steered so that the first hop matches and consumes the ingress tag and
// the last hop pushes the egress tag. Both tags ride along when a trunk
// failure re-steers the chain:
//
//	h1,h2 — s1 ——— s2 — ee1
//	          \   /
//	           s3
//
// Both SG links cross s1—s2 until it fails, then both detour via s3.
func TestStitchTagsSteeredAndKeptAcrossHeal(t *testing.T) {
	const ingress, egress = sg.MinStitchTag + 100, sg.MaxStitchTag
	env := startEnv(t, TopoSpec{
		Switches: []string{"s1", "s2", "s3"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s1"},
		EEs:      map[string]EESpec{"ee1": {Switch: "s2", CPU: 4, Mem: 2048}},
		Trunks:   []TrunkSpec{{A: "s1", B: "s2"}, {A: "s1", B: "s3"}, {A: "s2", B: "s3"}},
	})
	g := sapGraph("stitched", "monitor")
	g.Links[0].IngressTag = ingress
	g.Links[1].EgressTag = egress
	svc, err := env.Orch.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	checkStitched := func(when string, wantHops int) {
		t.Helper()
		routes := svc.Routes()
		for _, id := range []string{"l1", "l2"} {
			if len(routes[id]) != wantHops {
				t.Fatalf("%s: %s routed over %v, want %d switches", when, id, routes[id], wantHops)
			}
		}
		h1Port, h2Port := env.View.SAPs["h1"].Port, env.View.SAPs["h2"].Port
		var first, last []openflow.Action
		table := env.Net.Node("s1").(*netem.SwitchNode).Switch().Table()
		for _, e := range table.Entries() {
			if e.Priority != steering.PrioritySteering {
				continue
			}
			if e.Match.InPort == h1Port {
				if e.Match.Wildcards&openflow.WildDLVLAN != 0 || e.Match.DLVLAN != ingress {
					t.Errorf("%s: first hop of l1 matches VLAN %d (wildcard %v), want %d",
						when, e.Match.DLVLAN, e.Match.Wildcards&openflow.WildDLVLAN != 0, ingress)
				}
				first = e.Actions
			}
			if out, ok := e.Actions[len(e.Actions)-1].(openflow.ActionOutput); ok && out.Port == h2Port {
				last = e.Actions
			}
		}
		// Consumed: the first action strips the ingress tag or rewrites
		// it to the path's own segment VLAN.
		switch a := firstAction(first).(type) {
		case openflow.ActionStripVLAN:
		case openflow.ActionSetVLAN:
			if a.VLAN > steering.MaxSegmentVLAN {
				t.Errorf("%s: first hop of l1 rewrites to VLAN %d, not a segment VLAN", when, a.VLAN)
			}
		default:
			t.Errorf("%s: first hop of l1 does not consume the ingress tag: %v", when, first)
		}
		if n := len(last); n < 2 || last[n-2] != (openflow.ActionSetVLAN{VLAN: egress}) {
			t.Errorf("%s: last hop of l2 does not push the egress tag: %v", when, last)
		}
		pumpStitched(t, env, ingress, egress)
	}
	checkStitched("deployed", 2)

	env.Net.FindLink("s1", "s2").Fail()
	env.View.ExcludeLink("s1", "s2")
	rep, err := env.Orch.Heal("stitched")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rerouted) != 2 {
		t.Fatalf("heal re-steered %v, want l1 and l2", rep.Rerouted)
	}
	checkStitched("healed", 3)
}

func firstAction(actions []openflow.Action) openflow.Action {
	if len(actions) == 0 {
		return nil
	}
	return actions[0]
}

// pumpStitched sends h1→h2 frames tagged with the ingress tag until one
// arrives, and checks that it arrives carrying the egress tag.
func pumpStitched(t *testing.T, env *Environment, ingress, egress uint16) {
	t.Helper()
	h1, h2 := env.Host("h1"), env.Host("h2")
	h2.SetAutoRespond(false)
	frame, err := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 5000, 5001, []byte("stitched"))
	if err != nil {
		t.Fatal(err)
	}
	if frame, err = pkt.PushVLAN(frame, ingress); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h1.Send(frame)
		select {
		case rx := <-h2.Recv():
			hdr, err := pkt.Parse(rx.Frame)
			if err != nil || !hdr.IsIPv4() || hdr.NWProto != uint8(pkt.IPProtoUDP) {
				continue
			}
			if hdr.DLVLAN != egress {
				t.Fatalf("frame arrived with VLAN %d, want egress tag %d", hdr.DLVLAN, egress)
			}
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	t.Fatal("no tagged frame traversed the stitched chain")
}
