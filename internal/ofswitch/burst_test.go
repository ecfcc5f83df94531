package ofswitch

import (
	"slices"
	"testing"

	"escape/internal/openflow"
	"escape/internal/pkt"
)

// runRecorder is a switch whose ports record each Transmit call as one
// run of payload tags.
type runRecorder struct {
	s    *Switch
	runs map[uint16][][]byte // port → the tag of each frame, one entry per run
}

func newRunRecorder(t *testing.T, nPorts int) *runRecorder {
	t.Helper()
	r := &runRecorder{s: New("s1", 42), runs: map[uint16][][]byte{}}
	t.Cleanup(r.s.Stop)
	for i := 1; i <= nPorts; i++ {
		no := uint16(i)
		err := r.s.AddPort(&Port{No: no, Transmit: func(frames [][]byte) {
			var run []byte
			for _, f := range frames {
				run = append(run, payloadTag(t, f))
			}
			r.runs[no] = append(r.runs[no], run)
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// taggedFrame is a UDP frame to dstPort whose one-byte payload is tag.
func taggedFrame(t *testing.T, dstPort uint16, tag byte) []byte {
	t.Helper()
	f, err := pkt.BuildUDP(fmac1, fmac2, tip("10.0.0.1"), tip("10.0.0.2"), 1000, dstPort, []byte{tag})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// payloadTag reads back taggedFrame's tag.
func payloadTag(t *testing.T, f []byte) byte {
	t.Helper()
	if len(f) == 0 {
		t.Fatal("empty frame transmitted")
	}
	return f[len(f)-1]
}

// steerTPDst sends frames to UDP port tp through actions.
func steerTPDst(s *Switch, tp uint16, actions ...openflow.Action) {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildTPDst
	m.TPDst = tp
	s.Table().Add(&FlowEntry{Match: m, Priority: 10, Actions: actions})
}

// TestInputBurstKeepsPerPortOrder: a mixed burst (frames steered to two
// ports, a table miss, a FLOOD and a frame too short to parse) leaves
// each port in arrival order. Consecutive frames to one port leave as
// one run; the miss, the FLOOD and the parse error each end the pending
// run first.
func TestInputBurstKeepsPerPortOrder(t *testing.T) {
	r := newRunRecorder(t, 3)
	steerTPDst(r.s, 80, openflow.ActionOutput{Port: 2})
	steerTPDst(r.s, 81, openflow.ActionOutput{Port: 3})
	steerTPDst(r.s, 82, openflow.ActionOutput{Port: openflow.PortFlood})
	burst := [][]byte{
		taggedFrame(t, 80, 'a'),
		taggedFrame(t, 80, 'b'),
		taggedFrame(t, 81, 'c'),
		taggedFrame(t, 82, 'd'), // FLOOD: a copy to ports 2 and 3
		taggedFrame(t, 80, 'e'),
		taggedFrame(t, 99, 'x'), // table miss
		taggedFrame(t, 80, 'f'),
		{0xff, 0xff}, // too short to parse
		taggedFrame(t, 80, 'g'),
		taggedFrame(t, 81, 'h'),
		taggedFrame(t, 81, 'i'),
	}
	r.s.Input(1, burst)
	want := map[uint16][]string{
		2: {"ab", "d", "e", "f", "g"},
		3: {"c", "d", "hi"},
	}
	for no, runs := range want {
		var got []string
		for _, run := range r.runs[no] {
			got = append(got, string(run))
		}
		if !slices.Equal(got, runs) {
			t.Errorf("port %d received runs %q, want %q", no, got, runs)
		}
	}
	if n := len(r.runs[1]); n != 0 {
		t.Errorf("the ingress port transmitted %d runs", n)
	}
	if n := r.s.TableMisses.Load(); n != 1 {
		t.Errorf("table misses = %d, want 1", n)
	}
	st := r.s.port(1).stats()
	if st.RxPackets != uint64(len(burst)) || st.RxDropped != 1 {
		t.Errorf("ingress rx %d dropped %d, want %d and 1", st.RxPackets, st.RxDropped, len(burst))
	}
}

// TestBurstRunCountedBeforeTransmit: when a port's Transmit runs, the
// ingress rx counters, the port's own tx counters and the entry's
// counters already include the run it is handed.
func TestBurstRunCountedBeforeTransmit(t *testing.T) {
	s := New("s1", 42)
	t.Cleanup(s.Stop)
	burst := [][]byte{taggedFrame(t, 80, 'a'), taggedFrame(t, 80, 'b'), taggedFrame(t, 80, 'c')}
	var bytes uint64
	for _, f := range burst {
		bytes += uint64(len(f))
	}
	calls := 0
	if err := s.AddPort(&Port{No: 1, Transmit: func([][]byte) {}}); err != nil {
		t.Fatal(err)
	}
	err := s.AddPort(&Port{No: 2, Transmit: func(frames [][]byte) {
		calls++
		if len(frames) != len(burst) {
			t.Errorf("run of %d frames, want %d", len(frames), len(burst))
		}
		in, out := s.port(1).stats(), s.port(2).stats()
		if in.RxPackets != 3 || in.RxBytes != bytes {
			t.Errorf("ingress counted %d frames, %d bytes before the run left, want 3, %d", in.RxPackets, in.RxBytes, bytes)
		}
		if out.TxPackets != 3 || out.TxBytes != bytes {
			t.Errorf("egress counted %d frames, %d bytes before the run left, want 3, %d", out.TxPackets, out.TxBytes, bytes)
		}
		e := s.Table().Entries()[0]
		if e.Packets != 3 || e.Bytes != bytes {
			t.Errorf("entry counted %d frames, %d bytes before the run left, want 3, %d", e.Packets, e.Bytes, bytes)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	installRule(s, openflow.ActionOutput{Port: 2})
	s.Input(1, burst)
	if calls != 1 {
		t.Errorf("the burst left in %d Transmit calls, want 1", calls)
	}
}

// TestDownIngressDropsWholeBurst: a burst arriving on a port whose link
// is down is counted whole in rxDropped, and nothing of it leaves.
func TestDownIngressDropsWholeBurst(t *testing.T) {
	r := newRunRecorder(t, 2)
	installRule(r.s, openflow.ActionOutput{Port: 2})
	r.s.SetPortLinkState(1, true)
	r.s.Input(1, [][]byte{taggedFrame(t, 80, 'a'), taggedFrame(t, 80, 'b'), taggedFrame(t, 80, 'c')})
	st := r.s.port(1).stats()
	if st.RxDropped != 3 || st.RxPackets != 0 {
		t.Errorf("down ingress: rx %d, rxDropped %d, want 0 and 3", st.RxPackets, st.RxDropped)
	}
	if len(r.runs[2]) != 0 {
		t.Errorf("a down ingress forwarded %q", r.runs[2])
	}
}
