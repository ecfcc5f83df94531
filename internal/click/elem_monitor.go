package click

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The monitoring element, and the one clock the package keeps for it.

func init() {
	RegisterElement("Counter", func() Element { return &counter{period: periodClock()} })
}

// ratePeriod is the step of Counter's rate estimate: the EWMA moves once
// per period, by half of the way to the period's own rate.
const ratePeriod = 10 * time.Millisecond

// periods numbers the ratePeriods since the first Counter was built. One
// goroutine, started with that Counter and kept for the process, sets it
// from the elapsed time at each tick, so a tick the runtime dropped skips
// no period; each Counter folds the periods that passed when it next
// counts or is read. So no router's driver keeps time for its Counters,
// and an idle router is not woken at all.
var periods struct {
	once sync.Once
	n    atomic.Uint64
}

// periodClock starts the period clock once and returns it.
func periodClock() *atomic.Uint64 {
	periods.once.Do(func() {
		go func() {
			start := time.Now()
			for now := range time.Tick(ratePeriod) {
				periods.n.Store(uint64(now.Sub(start) / ratePeriod))
			}
		}()
	})
	return &periods.n
}

// counter counts packets and bytes and keeps an exponentially weighted
// rate estimate over ratePeriods. It is the handler surface ESCAPE's
// monitoring (Clicky substitute) reads most.
//
// Handlers: count, byte_count, rate, bit_rate (r), reset (w).
type counter struct {
	Base
	count  atomic.Uint64
	bytes  atomic.Uint64
	period *atomic.Uint64 // the period clock; tests set their own
	// cur is the period the counts since lastCnt and lastByte fell in.
	cur               uint64
	lastCnt, lastByte uint64
	ratePPS, rateBPS  float64
}

// Class implements Element.
func (*counter) Class() string { return "Counter" }

// Spec implements Element.
func (*counter) Spec() PortSpec { return agnostic(1, 1) }

// SimpleAction implements the per-packet transform. The first packet of a
// new period closes the periods before it, so each is counted in its own.
func (c *counter) SimpleAction(p *Packet) *Packet {
	if now := c.period.Load(); now != c.cur {
		c.fold(now)
	}
	c.count.Add(1)
	c.bytes.Add(uint64(p.Len()))
	return p
}

// fold steps the rate estimate over the periods from cur up to now: once
// with the counts cur collected, then once with none for every period
// after it, which halves the estimate each (α = 0.5 per period).
func (c *counter) fold(now uint64) {
	if now <= c.cur {
		return
	}
	cnt, byt := c.count.Load(), c.bytes.Load()
	perSec := float64(time.Second / ratePeriod)
	c.ratePPS = 0.5*c.ratePPS + 0.5*float64(cnt-c.lastCnt)*perSec
	c.rateBPS = 0.5*c.rateBPS + 0.5*float64(byt-c.lastByte)*8*perSec
	idle := math.Ldexp(1, -int(now-c.cur-1))
	c.ratePPS *= idle
	c.rateBPS *= idle
	c.cur, c.lastCnt, c.lastByte = now, cnt, byt
}

// rate reads one of the estimates after folding the periods that passed
// since the last packet.
func (c *counter) rate(v *float64) string {
	c.fold(c.period.Load())
	return strconv.FormatFloat(*v, 'f', 2, 64)
}

// Handlers implements handlerProvider.
func (c *counter) Handlers() []Handler {
	return []Handler{
		{Name: "count", Read: func() string { return strconv.FormatUint(c.count.Load(), 10) }},
		{Name: "byte_count", Read: func() string { return strconv.FormatUint(c.bytes.Load(), 10) }},
		{Name: "rate", Read: func() string { return c.rate(&c.ratePPS) }},
		{Name: "bit_rate", Read: func() string { return c.rate(&c.rateBPS) }},
		{Name: "reset", Write: func(string) error {
			c.count.Store(0)
			c.bytes.Store(0)
			c.ratePPS, c.rateBPS = 0, 0
			c.lastCnt, c.lastByte = 0, 0
			return nil
		}},
	}
}
