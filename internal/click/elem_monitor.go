package click

import (
	"strconv"
	"sync/atomic"
	"time"
)

// The monitoring element.

func init() {
	RegisterElement("Counter", func() Element { return &Counter{} })
}

// Counter counts packets and bytes and keeps an exponentially weighted
// packet-rate estimate updated on router ticks. It is the handler surface
// ESCAPE's monitoring (Clicky substitute) reads most.
//
// Handlers: count, byte_count, rate, bit_rate (r), reset (w).
type Counter struct {
	Base
	count    atomic.Uint64
	bytes    atomic.Uint64
	ratePPS  float64
	rateBPS  float64
	lastTick time.Time
	lastCnt  uint64
	lastByte uint64
}

// Class implements Element.
func (*Counter) Class() string { return "Counter" }

// Spec implements Element.
func (*Counter) Spec() PortSpec { return agnostic(1, 1) }

// SimpleAction implements the per-packet transform.
func (c *Counter) SimpleAction(p *Packet) *Packet {
	c.count.Add(1)
	c.bytes.Add(uint64(p.Len()))
	return p
}

// Tick implements Ticker: EWMA rate update (α=0.5 per tick).
func (c *Counter) Tick(now time.Time) {
	cnt, byt := c.count.Load(), c.bytes.Load()
	if c.lastTick.IsZero() {
		c.lastTick = now
		c.lastCnt = cnt
		c.lastByte = byt
		return
	}
	dt := now.Sub(c.lastTick).Seconds()
	if dt <= 0 {
		return
	}
	instPPS := float64(cnt-c.lastCnt) / dt
	instBPS := float64(byt-c.lastByte) * 8 / dt
	c.ratePPS = 0.5*c.ratePPS + 0.5*instPPS
	c.rateBPS = 0.5*c.rateBPS + 0.5*instBPS
	c.lastTick = now
	c.lastCnt = cnt
	c.lastByte = byt
}

// Handlers implements HandlerProvider.
func (c *Counter) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(c.count.Load(), 10) }},
		{Name: "byte_count", Read: func() string { return strconv.FormatUint(c.bytes.Load(), 10) }},
		{Name: "rate", Read: func() string { return strconv.FormatFloat(c.ratePPS, 'f', 2, 64) }},
		{Name: "bit_rate", Read: func() string { return strconv.FormatFloat(c.rateBPS, 'f', 2, 64) }},
		{Name: "reset", Write: func(string) error {
			c.count.Store(0)
			c.bytes.Store(0)
			c.ratePPS, c.rateBPS = 0, 0
			c.lastCnt, c.lastByte = 0, 0
			return nil
		}},
	}
}
