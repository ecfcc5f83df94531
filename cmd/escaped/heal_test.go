package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"escape/internal/core"
	"escape/internal/netconf"
	"escape/internal/netem"
	"escape/internal/pkt"
	"escape/internal/sg"
	"escape/internal/vnfagent"
	"escape/internal/yang"
)

// healBound is how long the daemon may take, with no client request, to
// bring an intent back to Running after a fault (or to give up on it).
const healBound = 5 * time.Second

// triangle is three switches in a ring — every single trunk failure
// leaves a detour — with one EE per switch and a host pair on s1 and s2.
func triangle() core.TopoSpec {
	return core.TopoSpec{
		Switches: []string{"s1", "s2", "s3"},
		Hosts:    map[string]string{"h1": "s1", "h2": "s2"},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "s1", CPU: 4, Mem: 2048},
			"ee2": {Switch: "s2", CPU: 4, Mem: 2048},
			"ee3": {Switch: "s3", CPU: 4, Mem: 2048},
		},
		Trunks: []core.TrunkSpec{{A: "s1", B: "s2"}, {A: "s1", B: "s3"}, {A: "s2", B: "s3"}},
	}
}

// healFixture is a daemon over spec behind a test HTTP server, with a
// tenant "acme" whose intent "web" (h1 → monitor → monitor → h2, nf1
// and nf2) is Running.
type healFixture struct {
	t         *testing.T
	d         *daemon
	url       string
	token     string
	closeOnce sync.Once
}

// close closes the daemon once; a test may close it early to time it.
func (f *healFixture) close() { f.closeOnce.Do(f.d.close) }

const webID = "acme/web"

func startHealFixture(t *testing.T, spec core.TopoSpec) *healFixture {
	t.Helper()
	return startHealFixtureWith(t, spec, func(*sg.Graph) {})
}

// startHealFixtureWith is startHealFixture with the intent's graph
// edited by edit before it is posted.
func startHealFixtureWith(t *testing.T, spec core.TopoSpec, edit func(*sg.Graph)) *healFixture {
	t.Helper()
	d, err := startDaemon(spec, daemonConfig{
		dataDir:    t.TempDir(),
		adminToken: "root",
		queueSlots: 8,
		workers:    2,
		resync:     2 * time.Second,
		log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &healFixture{t: t, d: d}
	t.Cleanup(f.close)
	ts := httptest.NewServer(d.handler)
	t.Cleanup(ts.Close)
	f.url = ts.URL

	var tenant struct{ Token string }
	f.do("POST", "/v1/tenants", "root", map[string]any{"name": "acme"}, http.StatusCreated, &tenant)
	f.token = tenant.Token

	g := sg.NewChainGraph("web", "monitor", "monitor")
	edit(g)
	f.run(g)
	return f
}

// run posts g, with its SAPs renamed h1 and h2, as an intent of "acme"
// and waits for it to run.
func (f *healFixture) run(g *sg.Graph) {
	f.t.Helper()
	g.SAPs[0].ID, g.SAPs[1].ID = "h1", "h2"
	g.Links[0].Src.Node = "h1"
	g.Links[len(g.Links)-1].Dst.Node = "h2"
	raw, err := g.ToJSON()
	if err != nil {
		f.t.Fatal(err)
	}
	var st intentState
	f.do("POST", "/v1/intents?wait=30s", f.token, map[string]json.RawMessage{"graph": raw}, http.StatusOK, &st)
	if !st.Running {
		f.t.Fatalf("intent %s not running after a waited POST: %+v", g.Name, st)
	}
}

// intentState is the part of GET /v1/intents/{service} these tests read.
type intentState struct {
	Running   bool   `json:"running"`
	LastError string `json:"last_error"`
}

// do sends one JSON request and decodes the reply into out.
func (f *healFixture) do(method, path, token string, body any, wantCode int, out any) {
	f.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			f.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, f.url+path, rd)
	if err != nil {
		f.t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		f.t.Fatalf("%s %s: %d %s, want %d", method, path, resp.StatusCode, raw, wantCode)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			f.t.Fatalf("%s %s: %v in %s", method, path, err, raw)
		}
	}
}

// intent reads the intent's status over the API.
func (f *healFixture) intent() intentState {
	f.t.Helper()
	var st intentState
	f.do("GET", "/v1/intents/web", f.token, nil, http.StatusOK, &st)
	return st
}

// metric reads one sample of the daemon's /metrics exposition.
func (f *healFixture) metric(name string) float64 {
	f.t.Helper()
	resp, err := http.Get(f.url + "/metrics")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				f.t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	f.t.Fatalf("metric %s missing from:\n%s", name, raw)
	return 0
}

// awaitHealed waits, with no client request, until the intent reads
// Running with no last_error over the API and its service is clear of
// the fault; then it checks that a frame crosses the chain end to end.
func (f *healFixture) awaitHealed(clear func(*core.Service) bool) {
	f.t.Helper()
	start := time.Now()
	if !f.d.rec.Await(healBound, func() bool {
		svc := f.d.env.Orch.Service(webID)
		return svc != nil && svc.State() == core.StateRunning && clear(svc) && f.d.rec.LastError(webID) == ""
	}) {
		state := "not deployed"
		if svc := f.d.env.Orch.Service(webID); svc != nil {
			state = fmt.Sprintf("%s placements=%v routes=%v", svc.State(), svc.Placements(), svc.Routes())
		}
		f.t.Fatalf("intent not healed within %v: %s, last_error %q", healBound, state, f.d.rec.LastError(webID))
	}
	if st := f.intent(); !st.Running || st.LastError != "" {
		f.t.Fatalf("healed intent reads %+v over the API", st)
	}
	if !pump(f.t, f.d.env, "healed", healBound-time.Since(start)) {
		f.t.Fatalf("no frame crossed the healed chain within %v of the fault", healBound)
	}
	if n := f.metric("escaped_heals_total"); n < 1 {
		f.t.Errorf("escaped_heals_total = %v after a heal, want ≥ 1", n)
	}
}

// TestDaemonHealsEECrash: crashing the EE that hosts the intent's first
// NF moves the NF off it, and the chain carries traffic again.
func TestDaemonHealsEECrash(t *testing.T) {
	f := startHealFixture(t, triangle())
	victim := f.d.env.Orch.Service(webID).Placements()["nf1"]
	f.d.env.Net.Node(victim).(*netem.EE).Crash()
	f.awaitHealed(func(svc *core.Service) bool {
		for _, ee := range svc.Placements() {
			if ee == victim {
				return false
			}
		}
		return true
	})
}

// TestDaemonHealsTrunkFailure: failing a trunk the intent's routes cross
// re-routes them over the detour.
func TestDaemonHealsTrunkFailure(t *testing.T) {
	f := startHealFixture(t, triangle())
	var a, b string
	for _, route := range f.d.env.Orch.Service(webID).Routes() {
		if len(route) > 1 {
			a, b = route[0], route[1]
			break
		}
	}
	if a == "" {
		t.Fatal("a chain from s1 to s2 crosses no trunk")
	}
	f.d.env.Net.FindLink(a, b).Fail()
	f.awaitHealed(func(svc *core.Service) bool {
		for _, route := range svc.Routes() {
			for i := 0; i+1 < len(route); i++ {
				if route[i] == a && route[i+1] == b || route[i] == b && route[i+1] == a {
					return false
				}
			}
		}
		return true
	})
}

// TestDaemonHealFailsThenRedeploys: with one EE and no room elsewhere, a
// crash leaves the intent down with a heal: error and the substrate
// exactly restored; once the EE restarts, the intent runs again with no
// client request.
func TestDaemonHealFailsThenRedeploys(t *testing.T) {
	spec := triangle()
	spec.EEs = map[string]core.EESpec{"ee1": {Switch: "s1", CPU: 4, Mem: 2048}}
	f := startHealFixture(t, spec)
	ee := f.d.env.Net.Node("ee1").(*netem.EE)
	ee.Crash()
	// The redeploy retries that follow overwrite last_error, so the
	// heal's own error is read at the run that reported it.
	if !f.d.rec.Await(healBound, func() bool {
		return strings.HasPrefix(f.d.rec.LastError(webID), "heal:")
	}) {
		t.Fatalf("no heal: error within %v; last_error %q", healBound, f.d.rec.LastError(webID))
	}
	if st := f.intent(); st.Running || st.LastError == "" {
		t.Errorf("unhealable intent reads %+v over the API, want not running with an error", st)
	}
	if n := f.metric("escaped_heal_failures_total"); n < 1 {
		t.Errorf("escaped_heal_failures_total = %v after a heal gave up, want ≥ 1", n)
	}
	if n := f.d.env.Steering.ActivePaths(); n != 0 {
		t.Errorf("%d steering paths left after the heal gave up", n)
	}
	if cpu, mem := f.d.env.View.Committed("ee1"); cpu != 0 || mem != 0 {
		t.Errorf("ee1 still committed %v cpu / %d mem after the heal gave up", cpu, mem)
	}

	ee.Restart()
	if !f.d.rec.Await(healBound, func() bool {
		return f.d.rec.Backend.Running(webID) && f.d.rec.LastError(webID) == ""
	}) {
		t.Fatalf("intent not running within %v of the EE's restart; last_error %q", healBound, f.d.rec.LastError(webID))
	}
	if st := f.intent(); !st.Running || st.LastError != "" {
		t.Fatalf("redeployed intent reads %+v over the API", st)
	}
}

// TestDaemonHealKeepsDelayRequirement: a heal must not commit what the
// intent's mapper would refuse. On a 5 ms line sw1–sw2–sw3 with a spur
// sw1–sw4, the intent h1(sw1) → h2(sw3) bounded at 12 ms runs on ee1 on
// sw1 (10 ms). Once ee1 crashes, the only survivor is ee2 on the spur,
// 20 ms end to end: the heal gives up naming the requirement, and the
// intent never runs on ee2.
func TestDaemonHealKeepsDelayRequirement(t *testing.T) {
	trunk := func(a, b string) core.TrunkSpec { return core.TrunkSpec{A: a, B: b, Delay: 5 * time.Millisecond} }
	spec := core.TopoSpec{
		Switches: []string{"sw1", "sw2", "sw3", "sw4"},
		Hosts:    map[string]string{"h1": "sw1", "h2": "sw3"},
		EEs: map[string]core.EESpec{
			"ee1": {Switch: "sw1", CPU: 4, Mem: 2048},
			"ee2": {Switch: "sw4", CPU: 4, Mem: 2048},
		},
		Trunks: []core.TrunkSpec{trunk("sw1", "sw2"), trunk("sw2", "sw3"), trunk("sw1", "sw4")},
	}
	f := startHealFixtureWith(t, spec, func(g *sg.Graph) {
		g.Reqs = []*sg.Requirement{{ID: "r1", From: "h1", To: "h2", MaxDelay: 12 * time.Millisecond}}
	})
	for nf, ee := range f.d.env.Orch.Service(webID).Placements() {
		if ee != "ee1" {
			t.Fatalf("NF %s runs on %s, want ee1 (the only placement within 12 ms)", nf, ee)
		}
	}
	// Every later Running transition of the intent is a heal or redeploy
	// onto ee2, the only EE left once ee1 is down.
	var runs atomic.Int32
	cancel := f.d.env.Orch.OnTransition(func(ev core.Event) {
		if ev.Service == webID && ev.State == core.StateRunning {
			runs.Add(1)
		}
	})
	defer cancel()

	f.d.env.Net.Node("ee1").(*netem.EE).Crash()
	// The redeploy retries that follow overwrite last_error, so it is
	// read at the run that reported it.
	if !f.d.rec.Await(healBound, func() bool {
		return strings.Contains(f.d.rec.LastError(webID), `requirement "r1"`)
	}) {
		state := "not deployed"
		if svc := f.d.env.Orch.Service(webID); svc != nil {
			state = fmt.Sprintf("%s placements=%v", svc.State(), svc.Placements())
		}
		t.Fatalf("no error naming requirement \"r1\" within %v: %s, last_error %q",
			healBound, state, f.d.rec.LastError(webID))
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("intent reported Running %d times after ee1 crashed: it ran on ee2, past its 12 ms bound", n)
	}
	if st := f.intent(); st.Running {
		t.Errorf("intent reads %+v over the API with ee1 down, want not running", st)
	}
}

// pump sends UDP frames h1→h2 until one arrives or timeout passes.
func pump(t *testing.T, env *core.Environment, payload string, timeout time.Duration) bool {
	t.Helper()
	h1, h2 := env.Host("h1"), env.Host("h2")
	h2.SetAutoRespond(false)
	frame, err := pkt.BuildUDP(h1.MAC(), h2.MAC(), h1.IP(), h2.IP(), 7000, 7001, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		h1.Send(frame)
		select {
		case rx := <-h2.Recv():
			dec := pkt.Decode(rx.Frame)
			if u, ok := dec.Layer(pkt.LayerTypeUDP).(*pkt.UDP); ok && string(u.Payload()) == payload {
				return true
			}
		case <-time.After(50 * time.Millisecond):
		}
	}
	return false
}

// mgmtBound is the NETCONF client's per-RPC deadline (netconf's
// rpcBound): the longest one management call may take.
const mgmtBound = 2 * time.Second

// hangAgent replaces ee's agent with one that accepts sessions and
// answers hello on the same address but never answers a vnf_starter
// rpc. Closing the old agent drops the sessions open to it, so every
// later call dials the hung one.
func hangAgent(t *testing.T, env *core.Environment, ee string) {
	t.Helper()
	addr := env.Agents[ee].Addr()
	env.Agents[ee].Close()
	hang := make(chan struct{})
	hung := netconf.NewServer(vnfagent.Module())
	for _, rpc := range []string{"initiateVNF", "startVNF", "stopVNF", "connectVNF", "disconnectVNF", "getVNFInfo"} {
		hung.Handle(rpc, func(*netconf.Session, *yang.Data) (*yang.Data, error) {
			<-hang
			return nil, errors.New("released after the test")
		})
	}
	if err := hung.ListenAndServe(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(hang) // before Close, which waits on the blocked handlers
		hung.Close()
	})
}

// TestDaemonHungAgent: after its intents deploy, the agent of the EE
// under "web" hangs. With no client request, the detector masks that EE
// (its probes miss the client's deadline), "web" heals off it or reports
// a last_error, "side", on a healthy EE, stays Running where it was, and
// the daemon still closes within 2 × mgmtBound.
func TestDaemonHungAgent(t *testing.T) {
	f := startHealFixture(t, triangle())
	side := sg.NewChainGraph("side", "monitor")
	side.NFs[0].CPU = 3.9 // too big for the EE that hosts "web"
	f.run(side)
	orch := f.d.env.Orch
	victim := orch.Service(webID).Placements()["nf1"]
	sideSvc := orch.Service("acme/side")
	sidePlaced := sideSvc.Placements()
	if sidePlaced["nf1"] == victim {
		t.Fatalf("side shares %s with web; the test needs it on a healthy EE", victim)
	}

	hangAgent(t, f.d.env, victim)
	onVictim := func(svc *core.Service) bool {
		for _, ee := range svc.Placements() {
			if ee == victim {
				return true
			}
		}
		return false
	}
	const settleBound = 4 * mgmtBound
	if !f.d.rec.Await(settleBound, func() bool {
		if !masked(f.d.env.View, victim) {
			return false
		}
		for _, id := range orch.Services() {
			if svc := orch.Service(id); svc != nil && svc.State() == core.StateRunning && onVictim(svc) {
				return false
			}
		}
		web := orch.Service(webID)
		healed := web != nil && web.State() == core.StateRunning && f.d.rec.LastError(webID) == ""
		return healed || f.d.rec.LastError(webID) != ""
	}) {
		state := "not deployed"
		if svc := orch.Service(webID); svc != nil {
			state = fmt.Sprintf("%s placements=%v", svc.State(), svc.Placements())
		}
		t.Fatalf("within %v: %s masked=%v, web %s, last_error %q", settleBound,
			victim, masked(f.d.env.View, victim), state, f.d.rec.LastError(webID))
	}
	if svc := orch.Service("acme/side"); svc != sideSvc || svc.State() != core.StateRunning ||
		!reflect.DeepEqual(svc.Placements(), sidePlaced) || f.d.rec.LastError("acme/side") != "" {
		t.Errorf("side, on healthy %s, did not stay Running in place", sidePlaced["nf1"])
	}
	t.Logf("web: running=%v last_error %q", f.d.rec.Backend.Running(webID), f.d.rec.LastError(webID))

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		f.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Logf("daemon closed in %v", time.Since(start))
	case <-time.After(2 * mgmtBound):
		t.Fatalf("daemon close still blocked after %v with a hung agent", 2*mgmtBound)
	}
}

// masked reports whether ee is masked in the view: a masked EE fits
// nothing, not even an empty demand.
func masked(rv *core.ResourceView, ee string) bool { return !rv.Snapshot().FitsEE(ee, 0, 0) }
