package netem

import (
	"sync"
	"sync/atomic"
	"time"
)

// LinkConfig shapes one link (both directions get the same parameters,
// like Mininet's TCLink).
type LinkConfig struct {
	// Bandwidth in bits per second; 0 = unshaped ("fast mode").
	Bandwidth float64
	// Delay is the one-way propagation delay; 0 = none.
	Delay time.Duration
	// Loss is the per-packet loss probability in [0,1).
	Loss float64
	// QueueLen is the egress queue depth in packets (default 512).
	QueueLen int
	// LossSeed seeds the loss RNG for reproducible experiments.
	LossSeed int64
}

// shaped reports whether the link serializes or delays frames; an
// unshaped link delivers inline.
func (c LinkConfig) shaped() bool { return c.Bandwidth > 0 || c.Delay > 0 }

// Link is a full-duplex connection between two ports, realized as two
// independent simplex pipes.
type Link struct {
	A, B *Port
	cfg  LinkConfig
	ab   *pipe // A→B
	ba   *pipe // B→A
	net  *Network
}

// Config returns the link's shaping parameters.
func (l *Link) Config() LinkConfig { return l.cfg }

// Fail cuts the link: frames in both directions are dropped (counted as
// drops) until Heal, and any switch endpoint announces the lost carrier
// to its controller via a PORT_STATUS link-down event — the signal
// failure detectors consume. Idempotent.
func (l *Link) Fail() { l.setFailed(true) }

// Heal restores a failed link and announces the recovered carrier.
func (l *Link) Heal() { l.setFailed(false) }

// Failed reports whether the link is currently cut.
func (l *Link) Failed() bool { return l.ab.down.Load() }

func (l *Link) setFailed(down bool) {
	l.ab.down.Store(down)
	l.ba.down.Store(down)
	for _, p := range []*Port{l.A, l.B} {
		if sn, ok := p.Node.(*SwitchNode); ok {
			sn.sw.SetPortLinkState(p.No, down)
		}
	}
}

// LinkStats aggregates both directions.
type LinkStats struct {
	ABPackets, BAPackets uint64
	ABDrops, BADrops     uint64
	ABBytes, BABytes     uint64
}

// Stats snapshots the link counters.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		ABPackets: l.ab.packets.Load(), BAPackets: l.ba.packets.Load(),
		ABDrops: l.ab.drops.Load(), BADrops: l.ba.drops.Load(),
		ABBytes: l.ab.bytes.Load(), BABytes: l.ba.bytes.Load(),
	}
}

// pipe is one direction of a link: an egress queue, optional token-bucket
// serialization and a delay line, delivering into the peer port.
type pipe struct {
	cfg     LinkConfig
	queue   chan []byte
	deliver func(frame []byte)
	// lossState is the seeded per-pipe loss RNG (splitmix64 over an
	// atomically advanced counter): concurrent senders on the unshaped
	// inline fast path draw without a lock, and a single sender observes
	// the same deterministic sequence for a given LossSeed.
	lossState atomic.Uint64

	packets atomic.Uint64
	bytes   atomic.Uint64
	drops   atomic.Uint64
	down    atomic.Bool // failed link: drop everything

	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once // a removed link may be closed again by Network.Stop
}

// newPipe makes one direction of a link. Only a shaped pipe gets an
// egress queue: an unshaped one delivers inline and never queues.
func newPipe(cfg LinkConfig, deliver func([]byte), seedSalt int64) *pipe {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 512
	}
	p := &pipe{
		cfg:     cfg,
		deliver: deliver,
		stop:    make(chan struct{}),
	}
	if cfg.shaped() {
		p.queue = make(chan []byte, cfg.QueueLen)
	}
	p.lossState.Store(uint64(cfg.LossSeed ^ seedSalt))
	return p
}

// send enqueues a frame for transmission; a full queue drops (tail drop),
// exactly like a real egress queue.
func (p *pipe) send(frame []byte) {
	if p.down.Load() || p.lose() {
		p.drops.Add(1)
		return
	}
	// Fast path: unshaped link with empty queue delivers inline, avoiding
	// a goroutine hop. This keeps large emulations (E3) cheap while
	// shaped links still get full queue semantics.
	if !p.cfg.shaped() {
		p.packets.Add(1)
		p.bytes.Add(uint64(len(frame)))
		p.deliver(frame)
		return
	}
	select {
	case p.queue <- frame:
	default:
		p.drops.Add(1)
	}
}

// lose draws the per-packet loss decision lock-free: the counter advance
// is one atomic add (each caller gets a unique state), and the splitmix64
// finalizer turns it into a uniform [0,1) variate. The previous
// mutex-guarded math/rand draw serialized every packet on the unshaped
// inline fast path.
func (p *pipe) lose() bool {
	if p.cfg.Loss <= 0 {
		return false
	}
	z := p.lossState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < p.cfg.Loss
}

// waitTimer arms the goroutine's reused timer for d and waits. It reports
// false when the pipe stops first. Reset never delivers an expiry armed
// before it (Go ≥ 1.23), so nothing is drained between waits.
func (p *pipe) waitTimer(t *time.Timer, d time.Duration) bool {
	t.Reset(d)
	select {
	case <-p.stop:
		return false
	case <-t.C:
		return true
	}
}

// newStoppedTimer returns a stopped timer ready for waitTimer's Reset:
// one per pipe goroutine, reused for every frame, where a per-frame
// time.After would allocate a fresh timer (plus channel) for every
// serialized and every delayed frame.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// start launches the transmission goroutine for shaped pipes. Unshaped
// pipes deliver inline and need no goroutine.
func (p *pipe) start() {
	if !p.cfg.shaped() {
		return
	}
	// Stage 1: serialization (token bucket at Bandwidth).
	// Stage 2: propagation delay line preserving order.
	var delayCh chan timedFrame
	if p.cfg.Delay > 0 {
		delayCh = make(chan timedFrame, cap(p.queue))
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			t := newStoppedTimer()
			defer t.Stop()
			for {
				select {
				case <-p.stop:
					return
				case tf := <-delayCh:
					if d := time.Until(tf.deliverAt); d > 0 {
						if !p.waitTimer(t, d) {
							return
						}
					}
					p.packets.Add(1)
					p.bytes.Add(uint64(len(tf.frame)))
					p.deliver(tf.frame)
				}
			}
		}()
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := newStoppedTimer()
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case frame := <-p.queue:
				if p.cfg.Bandwidth > 0 {
					txTime := time.Duration(float64(len(frame)*8) / p.cfg.Bandwidth * float64(time.Second))
					if txTime > 0 {
						if !p.waitTimer(t, txTime) {
							return
						}
					}
				}
				if delayCh != nil {
					select {
					case <-p.stop:
						return
					case delayCh <- timedFrame{frame: frame, deliverAt: time.Now().Add(p.cfg.Delay)}:
					}
					continue
				}
				p.packets.Add(1)
				p.bytes.Add(uint64(len(frame)))
				p.deliver(frame)
			}
		}
	}()
}

func (p *pipe) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

type timedFrame struct {
	frame     []byte
	deliverAt time.Time
}
