package click

// The fuse compiler: the Fused driver's init-time pass that turns
// eligible push chains into run-to-completion pipelines.
//
// A pipeline is a source that can batch-ingest (FromDevice over a
// BatchRecver device, InfiniteSource), zero or more Fusible transforms,
// and a sink (a Queue switched to a lock-free ring, a fusedSink such as
// Discard or push-mode ToDevice, or — when the chain hits an element the
// compiler cannot prove safe — a locked PushOutBatch back onto the
// ordinary path). One goroutine executes the whole pipeline per burst
// with no per-element locking and no scheduler handoffs.
//
// Eligibility is conservative. A chain extends through an element only if
// the element opted in (implements Fusible), has exactly one wired input
// and one wired output, both resolved Push, is not a scheduler task, and
// is not already owned by another pipeline. Everything else — fan-in,
// fan-out, pull segments, stateful-shared elements like Print, elements
// mutable through control sockets in ways atomics cannot cover — stays on
// the locked per-element path, which the same router keeps running on
// the Run goroutine's task loop.

import (
	"context"
	"sync/atomic"
	"time"
)

// Fusible marks an element whose per-packet transform may run inside a
// fused run-to-completion segment: outside the element lock, concurrently
// with handler access. Implementations must keep all state touched by
// FusedAction atomic or immutable-after-Configure.
// Return nil to drop the packet — the implementation must Kill it.
type Fusible interface {
	Element
	FusedAction(p *Packet) *Packet
}

// FusedBatcher is an optional refinement of Fusible: transform a whole
// burst in one call (amortizing counter updates and branch checks).
// The returned slice must preserve the relative order of kept packets.
type FusedBatcher interface {
	FusedBatch(ps []*Packet) []*Packet
}

// fusedSource is a task element that can hand the fused driver a burst
// directly: append up to a burst of packets to buf and return it, never
// blocking. Implemented by FromDevice and InfiniteSource.
type fusedSource interface {
	Element
	FusedIngest(buf []*Packet) []*Packet
}

// fusedSink is a chain terminator that can accept a burst from a fused
// pipeline without the element lock. Implemented by Discard and
// push-mode ToDevice; only used when a single pipeline goroutine owns it.
type fusedSink interface {
	Element
	FusedDeliver(ps []*Packet)
}

// fusedBurst is the per-iteration batch size of a fused pipeline. It is
// deliberately larger than the locked drivers' element bursts: a fused
// iteration is also the scheduling quantum, and on few-core hosts a
// bigger quantum means fewer goroutine handoffs per packet.
const fusedBurst = 256

// PipelineStats is a snapshot of one fused pipeline's perf counters.
type PipelineStats struct {
	Name    string // source element name
	Packets uint64 // packets ingested
	Batches uint64 // non-empty ingest bursts
	BusyNs  uint64 // nanoseconds spent in non-idle iterations
}

type pipeStats struct {
	packets atomic.Uint64
	batches atomic.Uint64
	busyNs  atomic.Uint64
}

// fusedStage is one compiled transform: batch when the element refines to
// FusedBatcher, per-packet otherwise.
type fusedStage struct {
	name  string
	act   func(*Packet) *Packet
	batch func([]*Packet) []*Packet
}

type fusedPipeline struct {
	name   string
	src    fusedSource
	stages []fusedStage
	sink   func([]*Packet)
	stats  *pipeStats
	idle   *parker // what the pipeline goroutine blocks on when src is dry
}

// compileFused runs at the end of router construction under the Fused
// driver. It builds pipelines from every eligible source, switches
// eligible Queues to lock-free rings, and collects every task it did not
// consume into fusedLeftover for the locked task loop.
func (r *Router) compileFused() {
	r.fusedElems = map[string]bool{}
	consumed := map[string]bool{}
	for _, n := range r.order {
		src, ok := r.elems[n].(fusedSource)
		if !ok || consumed[n] {
			continue
		}
		b := src.base()
		if b.NOut() != 1 || b.ResolvedOut(0) != Push || b.outs[0].elem == nil {
			continue
		}
		r.buildPipeline(n, src, consumed)
	}
	// Ring conversion for queues no pipeline claimed: producers still
	// push under the queue's mutex — serialized, so a single-producer
	// ring stays safe — while the single consumer dequeues lock-free via
	// PullInBatch.
	for _, n := range r.order {
		q, ok := r.elems[n].(*Queue)
		if !ok || q.lf != nil || q.fusedThrough || q.NIn() != 1 {
			continue
		}
		q.enableRing()
	}
	for _, te := range r.tasks {
		if !consumed[te.name] {
			r.fusedLeftover = append(r.fusedLeftover, te)
		}
	}
}

// buildPipeline walks the push chain downstream of src, fusing Fusible
// single-in/single-out elements until it reaches a terminator. It always
// succeeds: a chain that hits an ineligible element simply terminates
// with a locked PushOutBatch from the last fused element.
func (r *Router) buildPipeline(name string, src fusedSource, consumed map[string]bool) {
	var stages []fusedStage
	visited := map[string]bool{name: true}
	last := src.base() // base of the last element fused into the chain
	cur := last.outs[0].elem

	var sink func([]*Packet)
	fusedNames := []string{name}

	for sink == nil {
		cb := cur.base()
		cn := cb.name

		// Loop or contention with another pipeline: stop here.
		if visited[cn] || consumed[cn] {
			break
		}

		// Terminator: full run-to-completion through the Queue. When the
		// queue's only consumer is a lock-free-capable sink pulling from
		// it (pull-mode ToDevice, Discard), the pipeline fuses straight
		// through: bursts run to the device inside the pipeline
		// goroutine, the queue never stores a packet (drops move to the
		// sink's device, where a full TX ring drops anyway), and the
		// sink's scheduler task is consumed.
		if q, ok := cur.(*Queue); ok && q.NIn() == 1 && q.NOut() == 1 {
			if next := q.base().outs[0].elem; next != nil {
				if fs, ok := next.(fusedSink); ok {
					nb := fs.base()
					if nb.NIn() == 1 && !visited[nb.name] && !consumed[nb.name] {
						q.fusedThrough = true
						consumed[nb.name] = true
						fusedNames = append(fusedNames, cn, nb.name)
						sink = fs.FusedDeliver
						break
					}
				}
			}
		}

		// Terminator: an eligible Queue becomes the pipeline's lock-free
		// sink ring.
		if q, ok := cur.(*Queue); ok && q.NIn() == 1 {
			q.enableRing()
			fusedNames = append(fusedNames, cn)
			sink = func(ps []*Packet) { q.PushBatch(0, ps); r.idle.kick() }
			break
		}

		// Terminator: a lock-free-capable sink; this pipeline's goroutine
		// is its only caller (ToDevice's device may itself be SPSC).
		if fs, ok := cur.(fusedSink); ok && cb.NIn() == 1 {
			fusedNames = append(fusedNames, cn)
			sink = fs.FusedDeliver
			break
		}

		// Interior transform: opt-in, single-in/single-out push, not a
		// scheduler task.
		fe, ok := cur.(Fusible)
		if !ok || cb.NIn() != 1 || cb.NOut() != 1 ||
			cb.ResolvedOut(0) != Push || cb.outs[0].elem == nil {
			break
		}
		if _, isTask := cur.(Tasker); isTask {
			break
		}
		st := fusedStage{name: cn, act: fe.FusedAction}
		if fb, ok := cur.(FusedBatcher); ok {
			st.batch = fb.FusedBatch
		}
		stages = append(stages, st)
		fusedNames = append(fusedNames, cn)
		visited[cn] = true
		last = cb
		cur = cb.outs[0].elem
	}

	if sink == nil {
		// Conservative fallback: hand the burst to the ineligible element
		// through the ordinary locked path.
		lb := last
		sink = func(ps []*Packet) { lb.PushOutBatch(0, ps); r.idle.kick() }
	}

	fp := &fusedPipeline{
		name:   name,
		src:    src,
		stages: stages,
		sink:   sink,
		stats:  &pipeStats{},
		idle:   newParker(nil),
	}
	fp.idle.watch(src)
	r.fused = append(r.fused, fp)
	consumed[name] = true
	for _, fn := range fusedNames {
		r.fusedElems[fn] = true
	}
	for _, st := range stages {
		consumed[st.name] = true
	}
}

// FusedStats snapshots the per-pipeline perf counters. Empty unless the
// router was built with the Fused driver.
func (r *Router) FusedStats() []PipelineStats {
	out := make([]PipelineStats, 0, len(r.fused))
	for _, fp := range r.fused {
		out = append(out, PipelineStats{
			Name:    fp.name,
			Packets: fp.stats.packets.Load(),
			Batches: fp.stats.batches.Load(),
			BusyNs:  fp.stats.busyNs.Load(),
		})
	}
	return out
}

// process runs the transform stages over a burst in place, compacting
// out drops.
func (fp *fusedPipeline) process(ps []*Packet) []*Packet {
	for _, st := range fp.stages {
		if st.batch != nil {
			ps = st.batch(ps)
		} else {
			kept := ps[:0]
			for _, p := range ps {
				if q := st.act(p); q != nil {
					kept = append(kept, q)
				}
			}
			ps = kept
		}
		if len(ps) == 0 {
			break
		}
	}
	return ps
}

func (fp *fusedPipeline) run(ctx context.Context, r *Router) {
	buf := make([]*Packet, 0, fusedBurst)
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		buf = fp.src.FusedIngest(buf[:0])
		if len(buf) == 0 {
			if !r.park(ctx, fp.idle, nil) {
				return
			}
			continue
		}
		start := time.Now()
		n := len(buf)
		if out := fp.process(buf); len(out) > 0 {
			fp.sink(out)
		}
		fp.stats.packets.Add(uint64(n))
		fp.stats.batches.Add(1)
		fp.stats.busyNs.Add(uint64(time.Since(start).Nanoseconds()))
	}
}
