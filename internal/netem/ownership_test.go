package netem

import (
	"bytes"
	"testing"
	"time"

	"escape/internal/ofswitch"
	"escape/internal/openflow"
	"escape/internal/pkt"
)

// TestHostSendKeepsCallerFrameAcrossVLAN: Host.Send copies its caller's frame once,
// and the network edits only that copy. Here the copy is tagged, has its
// destination MAC rewritten and is untagged again on a two-switch path,
// and the caller's buffer stays byte-identical, send after send.
func TestHostSendKeepsCallerFrameAcrossVLAN(t *testing.T) {
	n := New("t", Options{})
	t.Cleanup(n.Stop)
	for _, name := range []string{"h1", "h2"} {
		if _, err := n.AddHost(name); err != nil {
			t.Fatal(err)
		}
	}
	var sws [2]*ofswitch.Switch
	for i, name := range []string{"s1", "s2"} {
		sn, err := n.AddSwitch(name)
		if err != nil {
			t.Fatal(err)
		}
		sws[i] = sn.Switch()
	}
	var links []*Link
	for _, ab := range [][2]string{{"h1", "s1"}, {"s1", "s2"}, {"s2", "h2"}} {
		l, err := n.AddLink(ab[0], ab[1], LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, l)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	steer := func(sw *ofswitch.Switch, in uint16, actions ...openflow.Action) {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildInPort
		m.InPort = in
		sw.Table().Add(&ofswitch.FlowEntry{Match: m, Priority: 10, Actions: actions})
	}
	newDst := pkt.MAC{2, 9, 9, 9, 9, 9}
	steer(sws[0], links[0].B.No, openflow.ActionSetVLAN{VLAN: 7},
		openflow.ActionSetDL{Dst: true, MAC: newDst}, openflow.ActionOutput{Port: links[1].A.No})
	steer(sws[1], links[1].B.No, openflow.ActionStripVLAN{}, openflow.ActionOutput{Port: links[2].A.No})

	h1, h2 := n.Node("h1").(*Host), n.Node("h2").(*Host)
	frame, err := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 1000, 2000, []byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	// Spare capacity lets a tag push work in place: were the network to
	// edit the caller's buffer, the push would show through frame.
	frame = append(make([]byte, 0, len(frame)+64), frame...)
	orig := append([]byte(nil), frame...)
	want := append([]byte(nil), frame...)
	copy(want[0:6], newDst[:])
	for i := 0; i < 3; i++ {
		if err := h1.Send(frame); err != nil {
			t.Fatal(err)
		}
		select {
		case rx := <-h2.Recv():
			if !bytes.Equal(rx.Frame, want) {
				t.Fatalf("send %d delivered %x, want %x", i, rx.Frame, want)
			}
			if &rx.Frame[0] == &frame[0] {
				t.Fatalf("send %d delivered the caller's own buffer", i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("send %d was not delivered", i)
		}
		if !bytes.Equal(frame, orig) {
			t.Fatalf("after send %d the caller's frame reads %x, want %x", i, frame, orig)
		}
	}
}
