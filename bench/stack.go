package main

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/openflow"
	"escape/internal/pkt"
	"escape/internal/pox"
)

// lineTopo is the emulated topology the packet workloads run on: a line
// of switches s1..sN joined by unshaped trunks, one EE per switch, and
// host pairs h<i>a at s1 and h<i>b at sN.
func lineTopo(switches, pairs int, eeCPU float64, eeMem int) core.TopoSpec {
	spec := core.TopoSpec{Hosts: map[string]string{}, EEs: map[string]core.EESpec{}}
	for i := 1; i <= switches; i++ {
		sw := fmt.Sprintf("s%d", i)
		spec.Switches = append(spec.Switches, sw)
		spec.EEs[fmt.Sprintf("ee%d", i)] = core.EESpec{Switch: sw, CPU: eeCPU, Mem: eeMem}
		if i > 1 {
			spec.Trunks = append(spec.Trunks, core.TrunkSpec{A: fmt.Sprintf("s%d", i-1), B: sw})
		}
	}
	for i := 0; i < pairs; i++ {
		spec.Hosts[fmt.Sprintf("h%da", i)] = "s1"
		spec.Hosts[fmt.Sprintf("h%db", i)] = fmt.Sprintf("s%d", switches)
	}
	return spec
}

// packetInCounter is a pox component that only counts PACKET_INs: the
// frames that left the switches' fast path.
type packetInCounter struct{ n atomic.Uint64 }

func (*packetInCounter) ComponentName() string { return "bench_packet_in_counter" }

func (c *packetInCounter) HandlePacketIn(*pox.Connection, *openflow.PacketIn) { c.n.Add(1) }

// dropCounts sums what the data plane dropped so far: every Click Queue's
// drops read handler over every VNF of every EE, and every link's drop
// counters.
func dropCounts(env *core.Environment) (queue, link uint64) {
	for name := range env.Agents {
		ee := env.Net.Node(name).(*netem.EE)
		for _, vn := range ee.VNFNames() {
			r := ee.VNF(vn).Router()
			if r == nil {
				continue
			}
			for _, el := range r.ElementNames() {
				if r.Element(el).Class() != "Queue" {
					continue
				}
				if v, err := r.ReadHandler(el + ".drops"); err == nil {
					n, _ := strconv.ParseUint(v, 10, 64)
					queue += n
				}
			}
		}
	}
	for _, l := range env.Net.Links() {
		st := l.Stats()
		link += st.ABDrops + st.BADrops
	}
	return queue, link
}

// tableLens returns the flow-table length of every switch.
func tableLens(env *core.Environment) map[string]int {
	out := map[string]int{}
	for _, name := range env.Net.NodeNames(netem.KindSwitch) {
		out[name] = env.Net.Node(name).(*netem.SwitchNode).Switch().Table().Len()
	}
	return out
}

func sumLens(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// memMark is a runtime.MemStats reading taken at a phase boundary.
type memMark struct{ ms runtime.MemStats }

func markMem() *memMark {
	m := &memMark{}
	runtime.ReadMemStats(&m.ms)
	return m
}

// since reports what the whole process allocated and how long the
// collector paused it since the mark. The load generator's own
// allocations are part of the figure.
func (m *memMark) since() (allocs, bytes float64, pause time.Duration) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.Mallocs - m.ms.Mallocs), float64(now.TotalAlloc - m.ms.TotalAlloc),
		time.Duration(now.PauseTotalNs - m.ms.PauseTotalNs)
}

// Frame layout of the benchmark's UDP frames: untagged Ethernet + IPv4
// without options + UDP, then an 8-byte big-endian sequence number.
const (
	udpChecksumOff = 14 + 20 + 6
	seqOff         = 14 + 20 + 8
	minFrameLen    = seqOff + 8
)

// udpFrame builds one frame of exactly frameLen bytes. The payload after
// the sequence number is filler; the UDP checksum is zeroed (unused, legal
// in IPv4) because the sequence number is rewritten per send.
func udpFrame(srcMAC, dstMAC pkt.MAC, src, dst netip.Addr, srcPort, dstPort uint16, frameLen int, filler []byte) ([]byte, error) {
	if frameLen < minFrameLen {
		return nil, fmt.Errorf("frame length %d below %d", frameLen, minFrameLen)
	}
	payload := make([]byte, frameLen-seqOff)
	copy(payload[8:], filler)
	f, err := pkt.BuildUDP(srcMAC, dstMAC, src, dst, srcPort, dstPort, payload)
	if err != nil {
		return nil, err
	}
	if len(f) != frameLen {
		return nil, fmt.Errorf("built a %d-byte frame, want %d", len(f), frameLen)
	}
	f[udpChecksumOff], f[udpChecksumOff+1] = 0, 0
	return f, nil
}

// hostFrame is udpFrame between two emulated hosts.
func hostFrame(src, dst *netem.Host, srcPort uint16, frameLen int, filler []byte) ([]byte, error) {
	return udpFrame(src.MAC(), dst.MAC(), src.IP(), dst.IP(), srcPort, 9000, frameLen, filler)
}

func putSeq(frame []byte, seq uint64) { binary.BigEndian.PutUint64(frame[seqOff:], seq) }

func getSeq(frame []byte) uint64 { return binary.BigEndian.Uint64(frame[seqOff:]) }
