// Package trafgen provides the "standard tools to send and inspect live
// traffic" of the demo walkthrough (step 4), implemented against the
// emulated network: an ICMP ping client and a UDP load generator and sink
// (iperf-like).
package trafgen

import (
	"fmt"
	"net/netip"
	"time"

	"escape/internal/netem"
	"escape/internal/pkt"
)

// Pinger runs ICMP echo measurements from a host.
type Pinger struct {
	Host *netem.Host
	// Ident distinguishes concurrent pingers (default 1).
	Ident uint16
}

// PingStats summarizes one ping run.
type PingStats struct {
	Sent, Received         int
	MinRTT, AvgRTT, MaxRTT time.Duration
}

// lossPercent reports the loss rate in percent.
func (s PingStats) lossPercent() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Sent-s.Received) / float64(s.Sent) * 100
}

// String renders a ping-like summary line.
func (s PingStats) String() string {
	return fmt.Sprintf("%d packets transmitted, %d received, %.0f%% packet loss, rtt min/avg/max = %v/%v/%v",
		s.Sent, s.Received, s.lossPercent(), s.MinRTT, s.AvgRTT, s.MaxRTT)
}

// Ping sends count echo requests at the given interval and waits up to
// timeout for each reply.
func (p *Pinger) Ping(dstIP netip.Addr, dstMAC pkt.MAC, count int, interval, timeout time.Duration) (PingStats, error) {
	ident := p.Ident
	if ident == 0 {
		ident = 1
	}
	var stats PingStats
	payload := []byte("escape-ping-payload-0123456789")
	// One reply-deadline timer reused across all echo sequences: Reset
	// per probe instead of a fresh time.After allocation per iteration.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for seq := 1; seq <= count; seq++ {
		frame, err := pkt.BuildICMPEcho(p.Host.MAC(), dstMAC, p.Host.IP(), dstIP,
			pkt.ICMPEchoRequest, ident, uint16(seq), payload)
		if err != nil {
			return stats, err
		}
		sentAt := time.Now()
		if err := p.Host.Send(frame); err != nil {
			return stats, err
		}
		stats.Sent++
		deadline.Reset(timeout)
		got := false
		for !got {
			select {
			case rx := <-p.Host.Recv():
				dec := pkt.Decode(rx.Frame)
				ic, ok := dec.Layer(pkt.LayerTypeICMP).(*pkt.ICMP)
				if !ok || ic.Type != pkt.ICMPEchoReply || ic.Ident != ident || ic.Seq != uint16(seq) {
					continue // unrelated traffic
				}
				rtt := time.Since(sentAt)
				stats.Received++
				if stats.MinRTT == 0 || rtt < stats.MinRTT {
					stats.MinRTT = rtt
				}
				if rtt > stats.MaxRTT {
					stats.MaxRTT = rtt
				}
				stats.AvgRTT += rtt
				got = true
			case <-deadline.C:
				got = true // lost
			}
		}
		if seq < count {
			time.Sleep(interval)
		}
	}
	if stats.Received > 0 {
		stats.AvgRTT /= time.Duration(stats.Received)
	}
	return stats, nil
}

// LoadGen sends UDP frames at a fixed packet rate: the iperf substitute.
type LoadGen struct {
	Host    *netem.Host
	DstIP   netip.Addr
	DstMAC  pkt.MAC
	SrcPort uint16
	DstPort uint16
	// Size is the UDP payload length per frame.
	Size int
	// Rate in packets per second (0 = as fast as possible).
	Rate float64
}

// LoadReport summarizes a run.
type LoadReport struct {
	Packets  int
	Bytes    int
	Duration time.Duration
}

// Mbps reports the offered load in megabits per second.
func (r LoadReport) Mbps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / r.Duration.Seconds() / 1e6
}

// Run transmits count frames and returns the offered-load report.
func (lg *LoadGen) Run(count int) (LoadReport, error) {
	if lg.Size <= 0 {
		lg.Size = 64
	}
	payload := make([]byte, lg.Size)
	frame, err := pkt.BuildUDP(lg.Host.MAC(), lg.DstMAC, lg.Host.IP(), lg.DstIP,
		lg.SrcPort, lg.DstPort, payload)
	if err != nil {
		return LoadReport{}, err
	}
	start := time.Now()
	var interval time.Duration
	if lg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / lg.Rate)
	}
	next := start
	for i := 0; i < count; i++ {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		if err := lg.Host.Send(frame); err != nil {
			return LoadReport{}, err
		}
	}
	return LoadReport{
		Packets:  count,
		Bytes:    count * len(frame),
		Duration: time.Since(start),
	}, nil
}

// Sink counts UDP frames arriving at a host port: the iperf server side.
type Sink struct {
	Host *netem.Host
	// Port filters on UDP destination port (0 = count all UDP).
	Port uint16
}

// CollectN consumes frames until n matching UDP frames arrived or the
// timeout expired.
func (s *Sink) CollectN(n int, timeout time.Duration) LoadReport {
	var rep LoadReport
	start := time.Now()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for rep.Packets < n {
		select {
		case rx := <-s.Host.Recv():
			dec := pkt.Decode(rx.Frame)
			u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
			if !ok {
				continue
			}
			if s.Port != 0 && u.DstPort != s.Port {
				continue
			}
			rep.Packets++
			rep.Bytes += len(rx.Frame)
		case <-deadline.C:
			rep.Duration = time.Since(start)
			return rep
		}
	}
	rep.Duration = time.Since(start)
	return rep
}
