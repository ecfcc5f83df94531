package netem

import (
	"net/netip"
	"slices"
	"testing"

	"escape/internal/pkt"
)

// hostPair is two hosts joined by one link of cfg, started, with the
// receiving host's stack off so every frame reaches its Recv channel.
func hostPair(t *testing.T, cfg LinkConfig) (*Link, *Host) {
	t.Helper()
	n := New("t", Options{})
	t.Cleanup(n.Stop)
	for _, name := range []string{"h1", "h2"} {
		if _, err := n.AddHost(name); err != nil {
			t.Fatal(err)
		}
	}
	l, err := n.AddLink("h1", "h2", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	h2 := n.Node("h2").(*Host)
	h2.SetAutoRespond(false)
	return l, h2
}

// seqFrames builds n UDP frames whose payload starts with their index,
// as two bytes; the payload length varies with the index.
func seqFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		payload := make([]byte, 2+i%7)
		payload[0], payload[1] = byte(i>>8), byte(i)
		f, err := pkt.BuildUDP(pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.MAC{2, 0, 0, 0, 0, 2},
			netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), 1, 2, payload)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = f
	}
	return out
}

// udpPayloadOff is where an untagged IPv4 UDP frame's payload starts.
const udpPayloadOff = 14 + 20 + 8

// received drains what h has been delivered and returns the frames'
// indices in arrival order.
func received(t *testing.T, h *Host) []int {
	t.Helper()
	var got []int
	for {
		select {
		case rx := <-h.Recv():
			p := rx.Frame[udpPayloadOff:]
			got = append(got, int(p[0])<<8|int(p[1]))
		default:
			return got
		}
	}
}

// TestUnshapedBurstCountsOnce: a burst over an unshaped link adds its
// packets and summed bytes to LinkStats and reaches the peer in order.
func TestUnshapedBurstCountsOnce(t *testing.T) {
	l, h2 := hostPair(t, LinkConfig{})
	burst := seqFrames(t, 32)
	var bytes uint64
	want := make([]int, len(burst))
	for i, f := range burst {
		bytes += uint64(len(f))
		want[i] = i
	}
	l.A.send(burst)
	st := l.Stats()
	if st.ABPackets != 32 || st.ABBytes != bytes || st.ABDrops != 0 {
		t.Errorf("link stats %+v, want 32 packets, %d bytes, no drops", st, bytes)
	}
	if got := received(t, h2); !slices.Equal(got, want) {
		t.Errorf("received %v, want %v", got, want)
	}
}

// TestLossyBurstDropsWhatFramesDrop: a lossy link draws loss per frame
// from its LossSeed sequence, so bursts lose exactly the frames that the
// same frames sent one at a time lose.
func TestLossyBurstDropsWhatFramesDrop(t *testing.T) {
	cfg := LinkConfig{Loss: 0.3, LossSeed: 11}
	const n = 200
	single, singleRx := hostPair(t, cfg)
	for _, f := range seqFrames(t, n) {
		single.A.Send(f)
	}
	bursts, burstRx := hostPair(t, cfg)
	frames := seqFrames(t, n)
	for len(frames) > 0 {
		k := min(32, len(frames))
		bursts.A.send(frames[:k])
		frames = frames[k:]
	}
	perFrame, perBurst := received(t, singleRx), received(t, burstRx)
	if len(perFrame) == 0 || len(perFrame) == n {
		t.Fatalf("%d of %d frames delivered: the loss draw did not bite", len(perFrame), n)
	}
	if !slices.Equal(perBurst, perFrame) {
		t.Errorf("bursts delivered %v, frames one at a time %v", perBurst, perFrame)
	}
	a, b := single.Stats(), bursts.Stats()
	if a.ABDrops != b.ABDrops || a.ABPackets != b.ABPackets || a.ABBytes != b.ABBytes {
		t.Errorf("bursts counted %+v, frames one at a time %+v", b, a)
	}
}
