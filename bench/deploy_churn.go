package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"escape/internal/api"
	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/netem"
	"escape/internal/openflow"
	"escape/internal/sg"
)

// deploy_churn: deploy → probe → undeploy cycles through the HTTP API of
// the control-plane daemon's stack, the only workload where api, the WAL,
// the reconciler queue, NETCONF realization and flow-mod + barrier
// steering do most of the work.
const (
	churnSwitches = 4
	churnChainLen = 3
	churnWait     = 30 * time.Second // ?wait on the POST, and every bounded wait of a cycle
	churnGonePoll = time.Millisecond // GET period while waiting for the 404
	churnTenant   = "bench"
)

// churnTypes are the NF types a cycle's chain is drawn from by the seed.
var churnTypes = []string{"monitor", "simpleForwarder", "firewall", "dpi"}

// churnFiller is in every probe: it carries dpi's default signature, so
// each of the four types' first catalog monitor counts the probe.
var churnFiller = []byte("attack")

// churnStack is the daemon's stack, assembled as cmd/escaped does, behind
// an httptest server.
type churnStack struct {
	env    *core.Environment
	store  *api.Store
	rec    *api.Reconciler
	ts     *httptest.Server
	http   *http.Client
	token  string
	dir    string
	pktIn  *packetInCounter
	events *eventBus
}

func startChurnStack(datadir string, clients int) (*churnStack, error) {
	dir, err := os.MkdirTemp(datadir, "churn-")
	if err != nil {
		return nil, err
	}
	env, err := core.StartEnvironment(lineTopo(churnSwitches, clients, 64, 1<<20))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &churnStack{env: env, dir: dir, pktIn: &packetInCounter{}}
	env.Ctrl.Register(s.pktIn)
	gate := api.NewQuotaGate()
	env.View.SetCommitGate(gate)
	if s.store, err = api.OpenStore(dir); err != nil {
		env.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	backend := &api.CoreBackend{Orch: env.Orch}
	s.rec = &api.Reconciler{Store: s.store, Backend: backend, Workers: 4, Log: quiet}
	s.rec.Start()
	srv := api.NewServer(api.ServerConfig{
		Store: s.store, Backend: backend, Reconciler: s.rec, Gate: gate,
		Catalog: catalog.Default(), AdminToken: "root", Log: quiet,
	})
	s.ts = httptest.NewServer(srv.Handler())
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	s.events = startEventBus(env.Orch)
	tn, err := s.store.CreateTenant(churnTenant, api.Quota{}) // zero quota = unlimited
	if err != nil {
		s.close()
		return nil, err
	}
	gate.SetTenant(tn)
	s.token = tn.Token
	return s, nil
}

// close tears the stack down and lets go of it, so that what a run of
// churn left in the EEs (several hundred MB) can be collected. Closing
// twice, or closing a stack that was never started, is harmless.
func (s *churnStack) close() {
	if s == nil || s.env == nil {
		return
	}
	s.events.stop()
	s.http.CloseIdleConnections()
	s.ts.Close()
	s.rec.Stop()
	s.env.Close()
	s.store.Close()
	os.RemoveAll(s.dir)
	*s = churnStack{}
}

// call is one authenticated request; it returns the status and the body.
func (s *churnStack) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+s.token)
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// eventBus fans the orchestrator's lifecycle events out to the client
// waiting on each service: the traced cycle's phase boundaries.
type eventBus struct {
	mu     sync.Mutex
	subs   map[string]chan core.Event
	cancel func()
	done   chan struct{}
}

func startEventBus(orch *core.Orchestrator) *eventBus {
	b := &eventBus{subs: map[string]chan core.Event{}, done: make(chan struct{})}
	// Deep enough that two clients' lifecycles never overflow it between
	// two reads of this loop.
	events, cancel := orch.Subscribe(4096)
	b.cancel = cancel
	go func() {
		defer close(b.done)
		for ev := range events {
			b.mu.Lock()
			ch := b.subs[ev.Service]
			b.mu.Unlock()
			if ch != nil {
				select {
				case ch <- ev:
				default:
				}
			}
		}
	}()
	return b
}

func (b *eventBus) stop() {
	b.cancel()
	<-b.done
}

func (b *eventBus) watch(service string) chan core.Event {
	ch := make(chan core.Event, 16) // a whole lifecycle is 6 events
	b.mu.Lock()
	b.subs[service] = ch
	b.mu.Unlock()
	return ch
}

func (b *eventBus) unwatch(service string) {
	b.mu.Lock()
	delete(b.subs, service)
	b.mu.Unlock()
}

// await reads events until the wanted state, returning every event seen.
func await(ch chan core.Event, want core.ServiceState, seen map[core.ServiceState]time.Time) error {
	timeout := time.NewTimer(churnWait)
	defer timeout.Stop()
	for {
		select {
		case ev := <-ch:
			seen[ev.State] = ev.Time
			if ev.State == want {
				return nil
			}
			if ev.State == core.StateFailed {
				return fmt.Errorf("service failed: %v", ev.Err)
			}
		case <-timeout.C:
			return fmt.Errorf("no %s event within %s", want, churnWait)
		}
	}
}

// churnClient is one closed-loop client: its own host pair, its own seeded
// draw of NF types, its own record.
type churnClient struct {
	s        *churnStack
	id       int
	rng      *rand.Rand
	src, dst *netem.Host
	inject   bool
	tr       *tracer // nil when untraced

	cycles, failed             int
	deploy, toPacket, undeploy sample // µs
	probes                     int
	firstErr                   error
}

func newChurnClient(s *churnStack, id int, seed int64, inject bool) *churnClient {
	return &churnClient{
		s: s, id: id, inject: inject,
		rng: rand.New(rand.NewSource(seed*7919 + int64(id))),
		src: s.env.Host(fmt.Sprintf("h%da", id)), dst: s.env.Host(fmt.Sprintf("h%db", id)),
	}
}

// intent draws the cycle's chain and renders the POST body.
func (c *churnClient) intent(service string) (body []byte, firstType string, err error) {
	types := make([]string, churnChainLen)
	for i := range types {
		types[i] = churnTypes[c.rng.Intn(len(churnTypes))]
	}
	g := sg.NewChainGraph(service, types...)
	if c.inject {
		// Test hook: a firewall that denies everything, so the probe is
		// lost and the cycle must be counted as failed.
		g.NFs[0].Type = "firewall"
		g.NFs[0].Params = map[string]string{"RULES": "deny -"}
	}
	bindSAPs(g, c.src.NodeName(), c.dst.NodeName())
	raw, err := g.ToJSON()
	if err != nil {
		return nil, "", err
	}
	body, err = json.Marshal(map[string]json.RawMessage{"graph": raw})
	return body, g.NFs[0].Type, err
}

// probe sends one 64-byte frame into the chain and waits up to a second
// for it at the egress SAP.
func (c *churnClient) probe(seq uint64) (time.Time, error) {
	frame, err := hostFrame(c.src, c.dst, 5000, 64, churnFiller)
	if err != nil {
		return time.Time{}, err
	}
	putSeq(frame, seq)
	c.probes++
	if err := c.src.Send(frame); err != nil {
		return time.Time{}, err
	}
	timeout := time.NewTimer(lossTimeout)
	defer timeout.Stop()
	for {
		select {
		case rx := <-c.dst.Recv():
			if len(rx.Frame) == len(frame) && getSeq(rx.Frame) == seq {
				return time.Now(), nil
			}
		case <-timeout.C:
			return time.Time{}, fmt.Errorf("probe %d not delivered within %s", seq, lossTimeout)
		}
	}
}

// monitorCount reads the first NF's first catalog monitor handler: ≥ 1
// proves the probe crossed the chain and not the l2_learning flood path.
func (c *churnClient) monitorCount(id, firstType string) (uint64, error) {
	svc := c.s.env.Orch.Service(id)
	if svc == nil {
		return 0, fmt.Errorf("service %s not registered", id)
	}
	dep := svc.NFs["nf1"]
	typ, err := c.s.env.Catalog.Lookup(firstType)
	if err != nil {
		return 0, err
	}
	v, err := c.s.env.Net.Node(dep.EE).(*netem.EE).VNF(dep.VNFID).Router().ReadHandler(typ.Monitors[0])
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(v, 10, 64)
}

// awaitGone GETs the intent every millisecond until it answers 404.
func (c *churnClient) awaitGone(path string) (time.Time, error) {
	for deadline := time.Now().Add(churnWait); time.Now().Before(deadline); time.Sleep(churnGonePoll) {
		code, _, err := c.s.call("GET", path, nil)
		if err != nil {
			return time.Time{}, err
		}
		if code == http.StatusNotFound {
			return time.Now(), nil
		}
	}
	return time.Time{}, fmt.Errorf("%s still present after %s", path, churnWait)
}

// cycle is one deploy → probe → undeploy. A cycle with any step failing
// is one failed operation; teardown is still attempted so the next cycle
// starts clean.
func (c *churnClient) cycle(n int) {
	service := fmt.Sprintf("c%d-%d", c.id, n)
	id := api.ServiceName(churnTenant, service)
	path := "/v1/intents/" + service
	c.cycles++
	var firstFail error
	fail := func(err error) {
		if err != nil && firstFail == nil {
			firstFail = fmt.Errorf("%s: %w", service, err)
		}
	}
	body, firstType, err := c.intent(service)
	if err != nil {
		fail(err)
	}

	var watch chan core.Event
	root := -1
	if c.tr != nil {
		watch = c.s.events.watch(id)
		defer c.s.events.unwatch(id)
		root = c.tr.begin("bench.cycle", n, -1)
		defer func() { c.tr.end(root) }()
	}

	// Deploy.
	t0 := time.Now()
	var running time.Time
	if c.tr == nil {
		code, data, err := c.s.call("POST", "/v1/intents?wait="+churnWait.String(), body)
		running = time.Now()
		var st struct {
			Running bool `json:"running"`
		}
		if err == nil && (code != http.StatusOK || json.Unmarshal(data, &st) != nil || !st.Running) {
			err = fmt.Errorf("POST ?wait answered %d %s", code, bytes.TrimSpace(data))
		}
		fail(err)
	} else {
		// Traced: POST without ?wait and take the phase boundaries from
		// the orchestrator's lifecycle events and the service's
		// PhaseDurations.
		code, data, err := c.s.call("POST", "/v1/intents", body)
		t202 := time.Now()
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("POST answered %d %s", code, bytes.TrimSpace(data))
		}
		fail(err)
		seen := map[core.ServiceState]time.Time{}
		if firstFail == nil {
			fail(await(watch, core.StateRunning, seen))
		}
		if svc := c.s.env.Orch.Service(id); firstFail == nil && svc != nil {
			running = seen[core.StateRunning]
			pd := svc.PhaseDurations
			mapStart := seen[core.StateMapped].Add(-pd["map"])
			c.tr.add("api.accept", n, root, t0, t202)
			if mapStart.After(t202) {
				c.tr.add("api.queue_wait", n, root, t202, mapStart)
			} else {
				c.tr.add("api.queue_wait", n, root, t202, t202) // the worker started before the 202 arrived
			}
			c.tr.add("core.map", n, root, mapStart, seen[core.StateMapped])
			c.tr.add("core.realize", n, root, seen[core.StateSteering].Add(-pd["vnf-setup"]), seen[core.StateSteering])
			c.tr.add("core.steer", n, root, running.Add(-pd["steering"]), running)
			c.tr.add("bench.post_to_running", n, -1, t0, running)
		}
	}
	deployed := firstFail == nil

	// Probe and counter read-back.
	if deployed {
		sp := -1
		if c.tr != nil {
			sp = c.tr.begin("bench.probe", n, root)
		}
		got, err := c.probe(uint64(n))
		if c.tr != nil {
			c.tr.end(sp)
		}
		fail(err)
		if err == nil {
			count, err := c.monitorCount(id, firstType)
			if err == nil && count < 1 {
				err = fmt.Errorf("first NF (%s) counted %d frames", firstType, count)
			}
			fail(err)
			if err == nil {
				c.deploy = append(c.deploy, micros(running.Sub(t0)))
				c.toPacket = append(c.toPacket, micros(got.Sub(t0)))
			}
		}
	}

	// Undeploy, also after a failure.
	t2 := time.Now()
	code, data, err := c.s.call("DELETE", path, nil)
	t3 := time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("DELETE answered %d %s", code, bytes.TrimSpace(data))
	}
	fail(err)
	removed := t3
	if c.tr != nil && err == nil && deployed {
		seen := map[core.ServiceState]time.Time{}
		fail(await(watch, core.StateRemoved, seen))
		if at, ok := seen[core.StateRemoved]; ok {
			removed = at
		}
	}
	if err == nil {
		gone, err := c.awaitGone(path)
		fail(err)
		if err == nil && firstFail == nil {
			c.undeploy = append(c.undeploy, micros(gone.Sub(t2)))
			if c.tr != nil {
				c.tr.add("api.delete", n, root, t2, t3)
				c.tr.add("core.undeploy", n, root, t3, removed)
				c.tr.add("api.gone_lag", n, root, removed, gone)
			}
		}
	}
	if firstFail != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = firstFail
		}
	}
}

// churnPass is what the clients of one pass measured together.
type churnPass struct {
	dur                        time.Duration
	cycles, failed, probes     int
	deploy, toPacket, undeploy sample
	firstErr                   error
	tr                         *tracer
	allocs, bytes              float64
	gcPause                    time.Duration
}

func (p churnPass) cyclesPerS() float64 { return float64(p.cycles-p.failed) / p.dur.Seconds() }

// runPass runs every client's closed loop, numbering cycles from first,
// until each client did cycles cycles (when cycles > 0) or dur has passed
// (when dur > 0). A traced pass gives each client a tracer and merges them.
func (s *churnStack) runPass(cfg runConfig, clients, first, cycles int, dur time.Duration, traced bool) churnPass {
	cs := make([]*churnClient, clients)
	epoch := time.Now()
	for i := range cs {
		cs[i] = newChurnClient(s, i, cfg.seed, cfg.inject)
		if traced {
			cs[i].tr = newTracer(epoch)
		}
	}
	mem := markMem()
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *churnClient) {
			defer wg.Done()
			for n := first; (cycles == 0 || n-first < cycles) && (dur == 0 || time.Since(start) < dur); n++ {
				c.cycle(n)
			}
		}(c)
	}
	wg.Wait()
	p := churnPass{dur: time.Since(start)}
	p.allocs, p.bytes, p.gcPause = mem.since()
	if traced {
		p.tr = newTracer(epoch)
	}
	for _, c := range cs {
		p.cycles += c.cycles
		p.failed += c.failed
		p.probes += c.probes
		p.deploy = append(p.deploy, c.deploy...)
		p.toPacket = append(p.toPacket, c.toPacket...)
		p.undeploy = append(p.undeploy, c.undeploy...)
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
		if traced {
			p.tr.merge(c.tr)
		}
	}
	return p
}

func runDeployChurn(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	clients := min(2, nproc())
	warmCycles := min(20, max(2, int(cfg.seconds)))
	o.params = map[string]any{
		"switches": churnSwitches, "clients": clients, "chain_len": churnChainLen,
		"warm_cycles": warmCycles, "nf_types": churnTypes, "inject": cfg.inject,
	}

	// Set-up: the stack plus warmCycles cycles per client (never with the
	// injected failure).
	var s *churnStack
	warm := cfg
	warm.inject = false
	setup, err := timeSetups(3, func() (err error) {
		s.close()
		if s, err = startChurnStack(cfg.datadir, clients); err == nil {
			s.runPass(warm, clients, 0, warmCycles, 0, false)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	o.set("setup_s", setup)

	lens0 := sumLens(tableLens(s.env))
	in0 := s.pktIn.n.Load()
	dur := secs(cfg.passSeconds())
	plain := s.runPass(cfg, clients, warmCycles, 0, dur, false)
	o.attempted, o.failed = plain.cycles, plain.failed
	if plain.firstErr != nil {
		o.note("first failure: "+plain.firstErr.Error(), 0, "")
	}
	o.check(cfg.inject || len(plain.deploy) > 0, "no cycle completed")
	dP50 := plain.deploy.median()
	o.issue["deploy_p50_ms"] = dP50 / 1e3
	o.issue["deploy_p99_ms"] = plain.deploy.quantile(0.99) / 1e3
	o.issue["intent_to_packet_p50_ms"] = plain.toPacket.median() / 1e3
	o.issue["undeploy_p50_ms"] = plain.undeploy.median() / 1e3
	o.issue["cycles_per_s"] = plain.cyclesPerS()
	o.note("cycles", float64(plain.cycles), "count")
	if !cfg.trace {
		o.set("ops_per_s", plain.cyclesPerS())
		o.set("op_mean_us", plain.deploy.mean())
		o.set("op2_mean_us", plain.undeploy.mean())
		o.check(sumLens(tableLens(s.env)) == lens0, "flow entries leaked")
		return o, nil
	}

	// One deploy alone, to count the flow-mods it installs.
	alone := newChurnClient(s, 0, cfg.seed, false)
	body, _, err := alone.intent("alone")
	if err != nil {
		return nil, err
	}
	if code, data, err := s.call("POST", "/v1/intents?wait="+churnWait.String(), body); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("lone deploy: %d %s %v", code, data, err)
	}
	o.set("steering.flowmods_per_deploy", float64(sumLens(tableLens(s.env))-lens0))
	if _, _, err := s.call("DELETE", "/v1/intents/alone", nil); err != nil {
		return nil, err
	}
	if _, err := alone.awaitGone("/v1/intents/alone"); err != nil {
		return nil, err
	}

	traced := s.runPass(cfg, clients, warmCycles+plain.cycles, 0, dur, true)
	o.tr = traced.tr
	o.attempted += traced.cycles
	o.failed += traced.failed
	if traced.firstErr != nil {
		o.note("first traced failure: "+traced.firstErr.Error(), 0, "")
	}

	// Deploy: the parts' medians as shares of the untraced deploy p50.
	// api.wait_poll is what the ?wait poll loop adds over the moment the
	// service is Running.
	self := traced.tr.layerTimes()
	explained := 0.0
	for _, name := range []string{"api.accept", "api.queue_wait", "core.map", "core.realize", "core.steer"} {
		v := self[name].median()
		explained += v
		o.set(name+"_share", share(v, dP50))
		o.note(name+" p50", v, "us")
		o.note(name+" p99", self[name].quantile(0.99), "us")
	}
	toRunning := self["bench.post_to_running"].median()
	o.set("api.wait_poll_share", share(dP50-toRunning, dP50))
	o.set("bench.deploy_residual_share", 1-share(explained+dP50-toRunning, dP50))
	o.note("traced POST → Running p50", toRunning, "us")
	uP50 := plain.undeploy.median()
	for _, name := range []string{"api.delete", "core.undeploy", "api.gone_lag"} {
		o.set(name+"_share", share(self[name].median(), uP50))
		o.note(name+" p50", self[name].median(), "us")
	}
	o.set("bench.intent_to_packet_ratio", share(plain.toPacket.median(), dP50))
	o.set("bench.undeploy_ratio", share(uP50, dP50))
	leaked := sumLens(tableLens(s.env)) - lens0
	o.set("steering.rules_leaked", float64(leaked))
	o.check(leaked == 0, "%d flow entries leaked", leaked)
	queue, link := dropCounts(s.env)
	o.set("click.queue_drops", float64(queue))
	o.set("netem.link_drops", float64(link))
	o.set("ofswitch.slowpath_share", share(float64(s.pktIn.n.Load()-in0), float64(plain.probes+traced.probes)))
	o.setRuntime(plain.allocs, plain.bytes, plain.gcPause, plain.cycles)
	o.set("bench.trace_overhead_share", 1-share(traced.cyclesPerS(), plain.cyclesPerS()))
	o.set("bench.op_p50_us", dP50)
	o.set("bench.op_p99_us", plain.deploy.quantile(0.99))
	o.note("traced cycles_per_s", traced.cyclesPerS(), "1/s")

	s.close() // the isolated drivers run in a quiet process
	if err := runProbes(o, cfg, 64, nil, openflow.PacketFields{}); err != nil {
		return nil, err
	}
	return o, nil
}
