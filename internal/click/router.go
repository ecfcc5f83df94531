package click

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Options tune router construction.
type Options struct {
	// Devices maps device names (FromDevice/ToDevice arguments) to Device
	// implementations.
	Devices map[string]Device
}

// tickInterval is the period of Ticker callbacks.
const tickInterval = 10 * time.Millisecond

// Router is an instantiated, wired Click element graph: one VNF instance.
type Router struct {
	name  string
	opts  Options
	elems map[string]Element
	order []string // declaration order, for deterministic iteration
	tasks []taskEntry

	mu      sync.Mutex // guards control state only; element code is serialized per element
	running bool
	stopped chan struct{}
	cancel  context.CancelFunc

	// idle is what the Run goroutine blocks on when no task has work.
	idle *parker
}

type taskEntry struct {
	name string
	t    tasker
	eb   *Base // the task element's base, locked around RunTask
}

// NewRouter parses, instantiates, configures, wires, validates and
// initializes a configuration. The router does not process packets until
// Run. The parse, the wiring checks and the push/pull negotiation run
// once per configuration text (see plan); every router gets fresh
// elements, each configured from its declaration's arguments.
func NewRouter(name, config string, opts Options) (*Router, error) {
	r := &Router{name: name, opts: opts, elems: map[string]Element{}, stopped: make(chan struct{})}
	if p := plans.get(config); p != nil {
		if err := r.build(p); err != nil {
			return nil, err
		}
	} else {
		p, err := r.compile(config)
		if err != nil {
			return nil, err
		}
		plans.put(config, p)
	}

	// Gather tasks and run initializers in declaration order.
	for _, n := range r.order {
		e := r.elems[n]
		if t, ok := e.(tasker); ok {
			r.tasks = append(r.tasks, taskEntry{name: n, t: t, eb: e.base()})
		}
	}
	for _, n := range r.order {
		if ini, ok := r.elems[n].(initializer); ok {
			if err := ini.Init(); err != nil {
				return nil, fmt.Errorf("click: initializing %s: %w", n, err)
			}
		}
	}
	var timed []Element
	for _, n := range r.order {
		if _, ok := r.elems[n].(deadliner); ok {
			timed = append(timed, r.elems[n])
		}
	}
	var err error
	if r.idle, err = newParker(timed, r.tasks); err != nil {
		return nil, err
	}
	return r, nil
}

// configure instantiates and configures the element a declaration names.
func (r *Router) configure(d configDecl) (Element, error) {
	e, err := newElement(d.Class)
	if err != nil {
		return nil, err
	}
	b := e.base()
	b.name = d.Name
	b.router = r
	b.self = e
	b.config = d.Args
	if err := e.Configure(r, d.Args); err != nil {
		return nil, fmt.Errorf("click: %s :: %s: %w", d.Name, d.Class, err)
	}
	return e, nil
}

// compile builds r from configuration text the long way — parse,
// configure, wire with every check, negotiate push/pull — and returns the
// plan that builds the same graph again without the parse, the checks or
// the negotiation.
func (r *Router) compile(config string) (*plan, error) {
	cfg, err := parse(config)
	if err != nil {
		return nil, err
	}
	p := &plan{decls: cfg.Decls}
	index := make(map[string]int, len(cfg.Decls))
	for i, d := range cfg.Decls {
		if _, dup := r.elems[d.Name]; dup {
			return nil, fmt.Errorf("click: element %q redeclared", d.Name)
		}
		e, err := r.configure(d)
		if err != nil {
			return nil, err
		}
		r.elems[d.Name] = e
		r.order = append(r.order, d.Name)
		index[d.Name] = i
	}

	// Wire connections.
	for _, c := range cfg.Conns {
		from, ok := r.elems[c.From]
		if !ok {
			return nil, fmt.Errorf("click: connection from undeclared element %q", c.From)
		}
		to, ok := r.elems[c.To]
		if !ok {
			return nil, fmt.Errorf("click: connection to undeclared element %q", c.To)
		}
		fb, tb := from.base(), to.base()
		fs, ts := from.Spec(), to.Spec()
		if c.FromPort >= fs.NOut {
			return nil, fmt.Errorf("click: %s has %d output port(s), config uses [%d]", c.From, fs.NOut, c.FromPort)
		}
		if c.ToPort >= ts.NIn {
			return nil, fmt.Errorf("click: %s has %d input port(s), config uses [%d]", c.To, ts.NIn, c.ToPort)
		}
		growOut(fb, fs.NOut)
		growIn(tb, ts.NIn)
		if fb.outs[c.FromPort].elem != nil {
			return nil, fmt.Errorf("click: output %s[%d] connected twice", c.From, c.FromPort)
		}
		if tb.ins[c.ToPort].elem != nil {
			return nil, fmt.Errorf("click: input [%d]%s connected twice", c.ToPort, c.To)
		}
		fb.outs[c.FromPort] = outPort{elem: to, port: c.ToPort}
		tb.ins[c.ToPort] = inPort{elem: from, port: c.FromPort}
		p.conns = append(p.conns, planConn{from: index[c.From], fromPort: c.FromPort, to: index[c.To], toPort: c.ToPort})
	}

	// Validate: outputs must be connected (a push into nowhere loses
	// packets; a pull output nobody drains is dead config). Unconnected
	// inputs are permitted — they simply never receive traffic.
	for _, n := range r.order {
		e := r.elems[n]
		s := e.Spec()
		b := e.base()
		growOut(b, s.NOut)
		growIn(b, s.NIn)
		for i := 0; i < s.NOut; i++ {
			if b.outs[i].elem == nil {
				return nil, fmt.Errorf("click: output %s[%d] unconnected", n, i)
			}
		}
	}
	if err := r.resolveProcessing(); err != nil {
		return nil, err
	}
	p.order = r.order
	for _, n := range r.order {
		b := r.elems[n].base()
		p.ports = append(p.ports, planPorts{nIn: len(b.ins), nOut: len(b.outs), inProc: b.inProc, outProc: b.outProc})
	}
	return p, nil
}

// build makes r from a compiled plan: fresh elements, configured from
// the plan's arguments, wired as the plan says, with the plan's
// negotiated processing.
func (r *Router) build(p *plan) error {
	elems := make([]Element, len(p.decls))
	for i, d := range p.decls {
		e, err := r.configure(d)
		if err != nil {
			return err
		}
		b := e.base()
		pp := p.ports[i]
		b.ins, b.outs = make([]inPort, pp.nIn), make([]outPort, pp.nOut)
		b.inProc, b.outProc = pp.inProc, pp.outProc
		r.elems[d.Name] = e
		elems[i] = e
	}
	for _, c := range p.conns {
		from, to := elems[c.from], elems[c.to]
		from.base().outs[c.fromPort] = outPort{elem: to, port: c.toPort}
		to.base().ins[c.toPort] = inPort{elem: from, port: c.fromPort}
	}
	r.order = p.order
	return nil
}

// resolveProcessing performs Click's push/pull negotiation: fixed port
// disciplines propagate across connections and through agnostic elements
// (input i tied to output i) until fixpoint; conflicts are configuration
// errors; anything still undecided defaults to push.
func (r *Router) resolveProcessing() error {
	// Initialize per-port processing from specs.
	for _, n := range r.order {
		e := r.elems[n]
		b := e.base()
		s := e.Spec()
		b.inProc = make([]Processing, len(b.ins))
		for i := range b.inProc {
			b.inProc[i] = s.in(i)
		}
		b.outProc = make([]Processing, len(b.outs))
		for i := range b.outProc {
			b.outProc[i] = s.out(i)
		}
	}
	for pass := 0; ; pass++ {
		if pass > 10000 {
			return fmt.Errorf("click: processing resolution did not converge")
		}
		changed := false
		for _, n := range r.order {
			e := r.elems[n]
			b := e.base()
			s := e.Spec()
			// Propagate across connections (output side drives).
			for i, out := range b.outs {
				if out.elem == nil {
					continue
				}
				pb := out.elem.base()
				a, bb := b.outProc[i], pb.inProc[out.port]
				switch {
				case a == Agnostic && bb != Agnostic:
					b.outProc[i] = bb
					changed = true
				case bb == Agnostic && a != Agnostic:
					pb.inProc[out.port] = a
					changed = true
				case a != Agnostic && bb != Agnostic && a != bb:
					return fmt.Errorf("click: %s[%d] (%s) connected to [%d]%s (%s): push/pull conflict",
						n, i, a, out.port, pb.name, bb)
				}
			}
			// Tie agnostic input i to output i within the element.
			for i := 0; i < len(b.inProc) && i < len(b.outProc); i++ {
				if s.in(i) != Agnostic || s.out(i) != Agnostic {
					continue
				}
				a, bb := b.inProc[i], b.outProc[i]
				switch {
				case a == Agnostic && bb != Agnostic:
					b.inProc[i] = bb
					changed = true
				case bb == Agnostic && a != Agnostic:
					b.outProc[i] = a
					changed = true
				case a != Agnostic && bb != Agnostic && a != bb:
					return fmt.Errorf("click: element %s is agnostic but input %d resolves %s while output %d resolves %s",
						n, i, a, i, bb)
				}
			}
		}
		if !changed {
			break
		}
	}
	// Default undecided ports to push.
	for _, n := range r.order {
		b := r.elems[n].base()
		for i := range b.inProc {
			if b.inProc[i] == Agnostic {
				b.inProc[i] = Push
			}
		}
		for i := range b.outProc {
			if b.outProc[i] == Agnostic {
				b.outProc[i] = Push
			}
		}
	}
	return nil
}

func growOut(b *Base, n int) {
	for len(b.outs) < n {
		b.outs = append(b.outs, outPort{})
	}
}

func growIn(b *Base, n int) {
	for len(b.ins) < n {
		b.ins = append(b.ins, inPort{})
	}
}

// Name returns the router (VNF instance) name.
func (r *Router) Name() string { return r.name }

// Element returns a named element, or nil.
func (r *Router) Element(name string) Element { return r.elems[name] }

// ElementNames returns declaration-ordered element names.
func (r *Router) ElementNames() []string { return append([]string(nil), r.order...) }

// device resolves a device name from Options.
func (r *Router) device(name string) (Device, bool) {
	d, ok := r.opts.Devices[name]
	return d, ok
}

// Run drives the router until ctx is cancelled. It blocks; use a goroutine.
// The driver executes scheduler tasks (FromDevices, RatedUnqueues, pulling
// ToDevices) and periodic ticks. Push processing happens synchronously inside task runs.
// A router runs once: a second Run, concurrent or after Stop, returns at
// once.
func (r *Router) Run(ctx context.Context) {
	r.mu.Lock()
	if r.cancel != nil {
		r.mu.Unlock()
		return
	}
	r.running = true
	ctx, r.cancel = context.WithCancel(ctx)
	r.mu.Unlock()

	defer func() {
		for _, n := range r.order {
			if c, ok := r.elems[n].(closer); ok {
				b := r.elems[n].base()
				b.mu.Lock()
				c.Close()
				b.mu.Unlock()
			}
		}
		r.mu.Lock()
		r.running = false
		r.mu.Unlock()
		close(r.stopped)
	}()

	r.runTasks(ctx, r.tasks)
}

// runLocked executes one task run with the task element's lock held.
func runLocked(te taskEntry, eb *Base) bool {
	eb.mu.Lock()
	worked := te.t.RunTask()
	eb.mu.Unlock()
	return worked
}

// runTasks is the one task loop: it delivers ticks and runs tasks
// round-robin on the calling goroutine until ctx is cancelled. A round in
// which no task did anything parks the goroutine (see idle.go) until a
// frame, a kick, a deadline, the tick or ctx ends the wait.
func (r *Router) runTasks(ctx context.Context, tasks []taskEntry) {
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	if r.idle.timer != nil {
		defer r.idle.timer.Stop()
	}
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			r.tick(now)
		default:
		}
		worked := false
		for _, te := range tasks {
			if runLocked(te, te.eb) {
				worked = true
			}
		}
		if !worked && !r.park(ctx, ticker.C) {
			return
		}
	}
}

// kick makes the driver run another round. WriteHandler calls it: a write
// can hand a task new work (a raised RatedUnqueue rate, for one).
func (r *Router) kick() { r.idle.kick() }

// ticker elements receive periodic time callbacks (rate estimators).
type ticker interface {
	Tick(now time.Time)
}

func (r *Router) tick(now time.Time) {
	for _, n := range r.order {
		if tk, ok := r.elems[n].(ticker); ok {
			b := r.elems[n].base()
			b.mu.Lock()
			tk.Tick(now)
			b.mu.Unlock()
		}
	}
}

// Stop cancels a running router and waits for the driver to exit.
func (r *Router) Stop() {
	r.mu.Lock()
	cancel := r.cancel
	running := r.running
	r.mu.Unlock()
	if cancel == nil || !running {
		return
	}
	cancel()
	<-r.stopped
}

// --- Handlers ---

func (r *Router) elementHandlers(e Element) []Handler {
	b := e.base()
	hs := []Handler{
		{Name: "class", Read: func() string { return e.Class() }},
		{Name: "config", Read: func() string { return b.configString() }},
		{Name: "name", Read: func() string { return b.name }},
	}
	if hp, ok := e.(handlerProvider); ok {
		hs = append(hs, hp.Handlers()...)
	}
	return hs
}

func (r *Router) findHandler(spec string) (Handler, error) {
	dot := strings.LastIndex(spec, ".")
	if dot < 0 {
		// Router-global handlers.
		switch spec {
		case "list":
			return Handler{Name: "list", Read: func() string {
				var sb strings.Builder
				fmt.Fprintf(&sb, "%d\n", len(r.order))
				for _, n := range r.order {
					sb.WriteString(n)
					sb.WriteByte('\n')
				}
				return sb.String()
			}}, nil
		case "version":
			return Handler{Name: "version", Read: func() string { return "escape-click-1.0" }}, nil
		case "config":
			return Handler{Name: "config", Read: func() string { return r.name }}, nil
		}
		return Handler{}, fmt.Errorf("click: no router handler %q", spec)
	}
	elemName, hName := spec[:dot], spec[dot+1:]
	e, ok := r.elems[elemName]
	if !ok {
		return Handler{}, fmt.Errorf("click: no element %q", elemName)
	}
	for _, h := range r.elementHandlers(e) {
		if h.Name == hName {
			return h, nil
		}
	}
	return Handler{}, fmt.Errorf("click: element %q has no handler %q", elemName, hName)
}

// lockFor returns the element lock covering a handler spec: the named
// element's lock, or nil for router-global handlers (whose reads touch
// only construction-time immutable state).
func (r *Router) lockFor(spec string) *sync.Mutex {
	dot := strings.LastIndex(spec, ".")
	if dot < 0 {
		return nil
	}
	if e, ok := r.elems[spec[:dot]]; ok {
		return &e.base().mu
	}
	return nil
}

// ReadHandler invokes a read handler ("counter.count"). Safe to call
// concurrently with a running driver: it serializes on the element's lock.
func (r *Router) ReadHandler(spec string) (string, error) {
	h, err := r.findHandler(spec)
	if err != nil {
		return "", err
	}
	if h.Read == nil {
		return "", fmt.Errorf("click: handler %q is not readable", spec)
	}
	if mu := r.lockFor(spec); mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	return h.Read(), nil
}

// writeHandler invokes a write handler ("q.capacity 64", "shaper.rate 500").
func (r *Router) writeHandler(spec, value string) error {
	h, err := r.findHandler(spec)
	if err != nil {
		return err
	}
	if h.Write == nil {
		return fmt.Errorf("click: handler %q is not writable", spec)
	}
	defer r.kick() // deferred first, so it runs after the unlock
	if mu := r.lockFor(spec); mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	return h.Write(value)
}
