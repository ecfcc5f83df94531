package click

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// Monitoring and annotation elements.

func init() {
	RegisterElement("Counter", func() Element { return &Counter{} })
	RegisterElement("Print", func() Element { return &Print{} })
	RegisterElement("Paint", func() Element { return &Paint{} })
	RegisterElement("SetTimestamp", func() Element { return &SetTimestamp{} })
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

// Count returns the packet count (for in-process consumers).
func (c *Counter) Count() uint64 { return c.count.Load() }

// ByteCount returns the byte count.
func (c *Counter) ByteCount() uint64 { return c.bytes.Load() }

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

// PrintWriter is where Print elements write; tests may replace it.
// Click prints to stderr; so do we by default.
var PrintWriter io.Writer = os.Stderr

// Print logs a one-line summary of each passing packet.
//
// Configuration: Print([LABEL][, MAXLENGTH n]).
type Print struct {
	Base
	label  string
	maxLen int
	count  atomic.Uint64
}

// Class implements Element.
func (*Print) Class() string { return "Print" }

// Spec implements Element.
func (*Print) Spec() PortSpec { return agnostic(1, 1) }

// Configure implements Element.
func (pr *Print) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	pr.label = Unquote(ca.Pos(0, ""))
	var err error
	if pr.maxLen, err = ca.KeyInt("MAXLENGTH", 24); err != nil {
		return err
	}
	return nil
}

// SimpleAction implements the per-packet transform.
func (pr *Print) SimpleAction(p *Packet) *Packet {
	pr.count.Add(1)
	data := p.Data()
	n := len(data)
	show := data
	if pr.maxLen >= 0 && n > pr.maxLen {
		show = data[:pr.maxLen]
	}
	label := pr.label
	if label == "" {
		label = pr.Name()
	}
	fmt.Fprintf(PrintWriter, "%s: %4d | %x\n", label, n, show)
	return p
}

// Handlers implements HandlerProvider.
func (pr *Print) Handlers() []Handler {
	return []Handler{{Name: "count", Read: func() string { return strconv.FormatUint(pr.count.Load(), 10) }}}
}

// Paint sets the paint annotation.
//
// Configuration: Paint(COLOR 0..255).
type Paint struct {
	Base
	color uint8
}

// Class implements Element.
func (*Paint) Class() string { return "Paint" }

// Spec implements Element.
func (*Paint) Spec() PortSpec { return agnostic(1, 1) }

// Configure implements Element.
func (pt *Paint) Configure(r *Router, args []string) error {
	ca := ParseArgs(args)
	n, err := ca.PosInt(0, 0)
	if err != nil {
		return err
	}
	if n < 0 || n > 255 {
		return fmt.Errorf("paint color %d out of range", n)
	}
	pt.color = uint8(n)
	return nil
}

// SimpleAction implements the per-packet transform.
func (pt *Paint) SimpleAction(p *Packet) *Packet {
	p.Paint = pt.color
	return p
}

// SetTimestamp stamps the packet with the current time; until one does,
// Packet.Timestamp is zero.
type SetTimestamp struct{ Base }

// Class implements Element.
func (*SetTimestamp) Class() string { return "SetTimestamp" }

// Spec implements Element.
func (*SetTimestamp) Spec() PortSpec { return agnostic(1, 1) }

// SimpleAction implements the per-packet transform.
func (*SetTimestamp) SimpleAction(p *Packet) *Packet {
	p.Timestamp = time.Now()
	return p
}
