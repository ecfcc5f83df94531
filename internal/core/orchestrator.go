package core

import (
	"cmp"
	"errors"
	"fmt"
	"log"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"escape/internal/catalog"
	"escape/internal/netconf"
	"escape/internal/openflow"
	"escape/internal/pox"
	"escape/internal/sg"
	"escape/internal/steering"
	"escape/internal/vnfagent"
	"escape/internal/yang"
)

// Config wires an Orchestrator to its collaborators.
type Config struct {
	// Controller provides switch connections for steering.
	Controller *pox.Controller
	// Steering installs chain paths. The caller creates it and registers
	// it with Controller, which dispatches its events.
	Steering *steering.Steering
	// Catalog resolves NF types.
	Catalog *catalog.Catalog
	// View is the global resource view.
	View *ResourceView
	// Agents maps EE names to their NETCONF management addresses (the
	// dedicated control network of the paper).
	Agents map[string]string
	// Mapper selects the mapping algorithm (default KSPMapper).
	Mapper Mapper
}

// Orchestrator is the orchestration layer: Deploy maps a service graph
// and realizes it through the lifecycle engine; Undeploy tears it down.
type Orchestrator struct {
	cfg Config

	mu       sync.Mutex
	pools    map[string]*vnfagent.Pool
	services map[string]*Service

	subMu   sync.Mutex
	subs    map[int]func(Event)
	nextSub int

	// closing flips once on Shutdown: new operations fail fast and
	// in-flight deploys cancel at their next phase/NF boundary. shutMu
	// orders inflight.Add against Shutdown's Wait (no Add may race a
	// Wait that could observe zero).
	closing  atomic.Bool
	shutMu   sync.Mutex
	inflight sync.WaitGroup
}

// ErrShuttingDown is returned by Deploy/Undeploy/Heal once Shutdown has
// begun, and is the failure cause of deploys cancelled mid-flight by it.
var ErrShuttingDown = errors.New("core: orchestrator shutting down")

// beginOp registers an in-flight operation, refusing once Shutdown has
// started. Every success must be paired with o.inflight.Done().
func (o *Orchestrator) beginOp() error {
	o.shutMu.Lock()
	defer o.shutMu.Unlock()
	if o.closing.Load() {
		return ErrShuttingDown
	}
	o.inflight.Add(1)
	return nil
}

// Shutdown drains the orchestrator: subsequent Deploy/Undeploy/Heal
// calls fail fast with ErrShuttingDown, deploys already in flight cancel
// at their next phase or per-NF boundary and roll back cleanly (their
// services end Failed with resources released — never stuck in
// Realizing/Steering), and the management session pools close once the
// last operation has drained. Running services keep running; their
// committed resources stay in the view. Idempotent.
func (o *Orchestrator) Shutdown() {
	o.shutMu.Lock()
	already := o.closing.Swap(true)
	o.shutMu.Unlock()
	if already {
		return
	}
	o.inflight.Wait()
	o.Close()
}

// New creates an orchestrator.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Controller == nil || cfg.Steering == nil || cfg.View == nil {
		return nil, fmt.Errorf("core: config needs Controller, Steering and View")
	}
	if cfg.Catalog == nil {
		cfg.Catalog = catalog.Default()
	}
	if cfg.Mapper == nil {
		cfg.Mapper = &KSPMapper{Catalog: cfg.Catalog}
	}
	return &Orchestrator{
		cfg:      cfg,
		pools:    map[string]*vnfagent.Pool{},
		services: map[string]*Service{},
		subs:     map[int]func(Event){},
	}, nil
}

// Mapper returns the active mapping algorithm.
func (o *Orchestrator) Mapper() Mapper {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cfg.Mapper
}

// SetMapper swaps the mapping algorithm (the extensibility headline).
func (o *Orchestrator) SetMapper(m Mapper) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cfg.Mapper = m
}

// pool returns the NETCONF session pool for an EE, creating it lazily.
// The session is dialed inside Pool.Do, never under o.mu, so a slow or
// dead agent cannot stall deploys targeting other EEs.
func (o *Orchestrator) pool(ee string) (*vnfagent.Pool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if p, ok := o.pools[ee]; ok {
		return p, nil
	}
	addr, ok := o.cfg.Agents[ee]
	if !ok {
		return nil, fmt.Errorf("core: no management address for EE %q", ee)
	}
	p := vnfagent.NewPool(addr)
	o.pools[ee] = p
	return p, nil
}

// DeployedNF records one realized NF.
type DeployedNF struct {
	NF      *sg.NF
	EE      string
	VNFID   string
	Control string            // ClickControl address for monitoring
	SwPorts map[string]uint16 // device name → switch port on the EE's switch
}

// Service is a service chain set moving through the lifecycle engine.
// Mapping, NFs and PhaseDurations are safe to read once the service has
// left the corresponding phase (Deploy returns a fully Running service);
// note that healing replaces Mapping and the affected NFs entries — use
// Placements/Routes for a race-free snapshot while a heal may run.
type Service struct {
	Name  string
	Graph *sg.Graph
	// Mapping is the current mapping; healing swaps in a fresh value.
	Mapping *Mapping
	// nfMu guards NFs while realization workers fill it in parallel, and
	// the Mapping pointer while healing replaces it.
	nfMu sync.Mutex
	NFs  map[string]*DeployedNF
	// PhaseDurations records per-phase deployment wall time (E8's
	// breakdown): "map", "vnf-setup", "steering".
	PhaseDurations map[string]time.Duration
	paths          []string // installed steering path ids

	// opMu serializes whole-service operations (Heal vs Undeploy), so a
	// service can never be torn down mid-migration.
	opMu sync.Mutex

	lc lifecycle
}

// mapping reads the current mapping pointer (healing may swap it).
func (svc *Service) mapping() *Mapping {
	svc.nfMu.Lock()
	defer svc.nfMu.Unlock()
	return svc.Mapping
}

// setMapping swaps in a healed mapping.
func (svc *Service) setMapping(m *Mapping) {
	svc.nfMu.Lock()
	svc.Mapping = m
	svc.nfMu.Unlock()
}

// Placements snapshots the current NF→EE assignment (nil until Mapped).
func (svc *Service) Placements() map[string]string {
	m := svc.mapping()
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m.Placements))
	for nfID, ee := range m.Placements {
		out[nfID] = ee
	}
	return out
}

// Routes snapshots the current SG-link→switch-route assignment (nil
// until Mapped); healing may re-route, so use this instead of reading
// Mapping.Routes while a heal may run.
func (svc *Service) Routes() map[string][]string {
	m := svc.mapping()
	if m == nil {
		return nil
	}
	out := make(map[string][]string, len(m.Routes))
	for linkID, route := range m.Routes {
		out[linkID] = append([]string(nil), route...)
	}
	return out
}

// reserve claims a service name: the Pending lifecycle entry. Both the
// duplicate check and the insertion happen under one lock, so of two
// racing Deploys with the same graph name exactly one wins and the other
// fails here instead of silently overwriting the winner later.
func (o *Orchestrator) reserve(g *sg.Graph) (*Service, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.services[g.Name]; dup {
		return nil, fmt.Errorf("core: service %q already deployed", g.Name)
	}
	svc := &Service{
		Name:           g.Name,
		Graph:          g,
		NFs:            map[string]*DeployedNF{},
		PhaseDurations: map[string]time.Duration{},
	}
	o.services[g.Name] = svc
	return svc, nil
}

// unregister frees a service name (failed deploy or undeploy).
func (o *Orchestrator) unregister(svc *Service) {
	o.mu.Lock()
	if o.services[svc.Name] == svc {
		delete(o.services, svc.Name)
	}
	o.mu.Unlock()
}

// Deploy maps and realizes a service graph: the on-demand service
// creation workflow of the demo (step 3 of the paper's walkthrough),
// driven through the lifecycle state machine. Deploys of different
// services run concurrently: admission is optimistic over the versioned
// resource view (mapping runs lock-free, validate-and-commit retries on
// conflict — non-contending deploys never serialize), realization fans
// out across EEs, and steering lands as one batch.
func (o *Orchestrator) Deploy(g *sg.Graph) (*Service, error) {
	if err := o.beginOp(); err != nil {
		return nil, err
	}
	defer o.inflight.Done()
	svc, err := o.reserve(g)
	if err != nil {
		return nil, err
	}

	fail := func(err error) (*Service, error) {
		o.teardown(svc)
		o.unregister(svc)
		o.setState(svc, StateFailed, err)
		return nil, err
	}

	// Phase 1: admission (optimistic map + validate-and-commit).
	t0 := time.Now()
	mapping, err := o.cfg.View.AdmitAndCommit(o.Mapper(), g)
	if err != nil {
		o.unregister(svc)
		err = fmt.Errorf("core: mapping %q: %w", g.Name, err)
		o.setState(svc, StateFailed, err)
		return nil, err
	}
	svc.setMapping(mapping)
	svc.PhaseDurations["map"] = time.Since(t0)
	o.setState(svc, StateMapped, nil)

	// Phase 2: VNF lifecycle over NETCONF (initiate → connect → start),
	// fanned out across EEs.
	o.setState(svc, StateRealizing, nil)
	t1 := time.Now()
	if err := o.realize(svc, mapping); err != nil {
		return fail(err)
	}
	svc.PhaseDurations["vnf-setup"] = time.Since(t1)

	// Phase 3: steering, batched per switch.
	o.setState(svc, StateSteering, nil)
	t2 := time.Now()
	if err := o.steer(svc, g, mapping); err != nil {
		return fail(err)
	}
	svc.PhaseDurations["steering"] = time.Since(t2)

	o.setState(svc, StateRunning, nil)
	return svc, nil
}

// realize runs realizeEE for every EE the mapping places NFs on: one
// goroutine per touched EE, so EEs proceed in parallel while each sees
// its NFs' waves in order on its one management session. The first
// error cancels the others at their next wave, as does a shutdown, so
// the service can never be left stuck in Realizing; NFs already
// initiated stay recorded in svc.NFs for the caller's rollback.
func (o *Orchestrator) realize(svc *Service, mapping *Mapping) error {
	groups := map[string][]string{}
	for nfID, ee := range mapping.Placements {
		groups[ee] = append(groups[ee], nfID)
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		cancel   atomic.Bool
	)
	for ee, nfIDs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := o.realizeEE(svc, mapping, ee, nfIDs, &cancel)
			if err == nil || errors.Is(err, errSiblingFailed) {
				return
			}
			cancel.Store(true)
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}()
	}
	wg.Wait()
	return firstErr
}

// errSiblingFailed cancels an EE's realization once another EE's failed;
// realize reports the sibling's error instead.
var errSiblingFailed = errors.New("core: realization cancelled by a failed sibling EE")

// realizeEE realizes nfIDs on one EE over one borrowed session, in three
// pipelined waves: every initiateVNF, then every connectVNF, then every
// startVNF, each wave one netconf flight. Every VNF initiated and every
// device connected is recorded in svc.NFs before the wave's first
// failure is returned, so a rollback releases it.
//
// cancel is shared by the EEs of one deploy's fan-out; heal's migration,
// which nothing cancels, passes nil. It is checked before each wave,
// together with shutdown, and set as soon as this EE fails, before its
// session is released, so siblings stop at their next wave. A
// cancellation is carried out of the borrow rather than returned from
// it, since Pool.Do closes the session on any error that is not an
// rpc-error.
func (o *Orchestrator) realizeEE(svc *Service, mapping *Mapping, eeName string, nfIDs []string, cancel *atomic.Bool) error {
	pool, err := o.pool(eeName)
	if err != nil {
		return err
	}
	sort.Strings(nfIDs)
	nfs := make([]*sg.NF, len(nfIDs))
	devs := make([][]string, len(nfIDs)) // every catalog port, so unused directions exist too
	initiates := make([]*yang.Data, len(nfIDs))
	for i, nfID := range nfIDs {
		nf := svc.Graph.NF(nfID)
		typ, err := o.cfg.Catalog.Lookup(nf.Type)
		if err != nil {
			return err
		}
		options := maps.Clone(nf.Params)
		if options == nil {
			options = map[string]string{}
		}
		cpu, mem := NFDemand(mapping.Catalog, nf)
		options["cpu"] = cpu.String()
		options["mem"] = fmt.Sprint(mem)
		nfs[i], devs[i] = nf, slices.Sorted(slices.Values(typ.Ports))
		initiates[i] = vnfagent.InitiateVNFOp(nf.Type, options)
	}
	sw := o.cfg.View.EEs[eeName].Switch

	var cancelErr error
	proceed := func() bool {
		switch {
		case cancel == nil:
		case o.closing.Load():
			cancelErr = fmt.Errorf("core: realizing %q: %w", svc.Name, ErrShuttingDown)
		case cancel.Load():
			cancelErr = errSiblingFailed
		}
		return cancelErr == nil
	}
	// settle is a wave's outcome: a broken transport first, since it
	// decides whether Pool.Do keeps the session, then the first refusal.
	settle := func(flightErr, firstErr error) error {
		if flightErr != nil && !vnfagent.IsRPCError(flightErr) {
			return fmt.Errorf("core: realizing on %q: %w", eeName, flightErr)
		}
		return firstErr
	}
	waves := func(client *vnfagent.Client) error {
		if !proceed() {
			return nil
		}
		var firstErr error
		replies, flightErr := client.Calls(initiates...)
		deps := make([]*DeployedNF, 0, len(replies))
		depDevs := make([][]string, 0, len(replies))
		for i, reply := range replies {
			vnfID, err := vnfagent.InitiatedVNF(reply)
			if err != nil {
				firstErr = cmp.Or(firstErr, fmt.Errorf("core: initiateVNF %q on %q: %w", nfIDs[i], eeName, err))
				continue
			}
			dep := &DeployedNF{NF: nfs[i], EE: eeName, VNFID: vnfID, SwPorts: map[string]uint16{}}
			deps, depDevs = append(deps, dep), append(depDevs, devs[i])
			svc.nfMu.Lock()
			svc.NFs[nfIDs[i]] = dep
			svc.nfMu.Unlock()
		}
		if err := settle(flightErr, firstErr); err != nil || !proceed() {
			return err
		}

		type device struct {
			dep *DeployedNF
			dev string
		}
		var (
			devices []device
			ops     []*yang.Data
		)
		for k, dep := range deps {
			for _, dev := range depDevs[k] {
				devices = append(devices, device{dep, dev})
				ops = append(ops, vnfagent.ConnectVNFOp(dep.VNFID, dev, sw))
			}
		}
		replies, flightErr = client.Calls(ops...)
		for i, reply := range replies {
			port, err := vnfagent.ConnectedPort(reply)
			if err != nil {
				firstErr = cmp.Or(firstErr, fmt.Errorf("core: connectVNF %s/%s: %w", devices[i].dep.NF.ID, devices[i].dev, err))
				continue
			}
			devices[i].dep.SwPorts[devices[i].dev] = port
		}
		if err := settle(flightErr, firstErr); err != nil || !proceed() {
			return err
		}

		ops = ops[:0]
		for _, dep := range deps {
			ops = append(ops, vnfagent.StartVNFOp(dep.VNFID))
		}
		replies, flightErr = client.Calls(ops...)
		for i, reply := range replies {
			control, err := vnfagent.StartedVNF(reply)
			if err != nil {
				firstErr = cmp.Or(firstErr, fmt.Errorf("core: startVNF %q: %w", deps[i].NF.ID, err))
				continue
			}
			deps[i].Control = control
		}
		return settle(flightErr, firstErr)
	}
	err = pool.Do(func(client *vnfagent.Client) error {
		err := waves(client)
		if err != nil && cancel != nil {
			cancel.Store(true)
		}
		return err
	})
	return cmp.Or(err, cancelErr)
}

// steer expands every SG link into a concrete path and installs the
// whole set in one batched push.
func (o *Orchestrator) steer(svc *Service, g *sg.Graph, mapping *Mapping) error {
	// Cancel at the phase boundary on shutdown (the deploy rolls back).
	if o.closing.Load() {
		return fmt.Errorf("core: steering %q: %w", svc.Name, ErrShuttingDown)
	}
	linkIDs := make([]string, 0, len(mapping.Routes))
	for id := range mapping.Routes {
		linkIDs = append(linkIDs, id)
	}
	sort.Strings(linkIDs)
	paths := make([]steering.Path, 0, len(linkIDs))
	for _, linkID := range linkIDs {
		l := g.Link(linkID)
		path, err := o.concretePath(svc, l, mapping.Routes[linkID])
		if err != nil {
			return err
		}
		paths = append(paths, *path)
	}
	if _, err := o.cfg.Steering.InstallPaths(paths); err != nil {
		return fmt.Errorf("core: steering %q: %w", svc.Name, err)
	}
	for _, p := range paths {
		svc.paths = append(svc.paths, p.ID)
	}
	return nil
}

// concretePath expands a switch route into port-level hops.
func (o *Orchestrator) concretePath(svc *Service, l *sg.Link, route []string) (*steering.Path, error) {
	srcPort, err := o.attachPort(svc, l.Src, false)
	if err != nil {
		return nil, err
	}
	dstPort, err := o.attachPort(svc, l.Dst, true)
	if err != nil {
		return nil, err
	}
	hops := make([]steering.Hop, len(route))
	for i, sw := range route {
		dpid, ok := o.cfg.View.Switches[sw]
		if !ok {
			return nil, fmt.Errorf("core: route through unknown switch %q", sw)
		}
		hop := steering.Hop{DPID: dpid}
		if i == 0 {
			hop.InPort = srcPort
		} else {
			lr := o.cfg.View.linkBetween(route[i-1], sw)
			if lr == nil {
				return nil, fmt.Errorf("core: route %v has no link %s–%s", route, route[i-1], sw)
			}
			hop.InPort = portFacing(lr, sw)
		}
		if i == len(route)-1 {
			hop.OutPort = dstPort
		} else {
			lr := o.cfg.View.linkBetween(sw, route[i+1])
			if lr == nil {
				return nil, fmt.Errorf("core: route %v has no link %s–%s", route, sw, route[i+1])
			}
			hop.OutPort = portFacing(lr, sw)
		}
		hops[i] = hop
	}
	return &steering.Path{
		ID:          svc.Name + "/" + l.ID,
		Hops:        hops,
		IngressVLAN: l.IngressTag,
		EgressVLAN:  l.EgressTag,
	}, nil
}

// portFacing returns lr's port number on switch sw.
func portFacing(lr *LinkRes, sw string) uint16 {
	if lr.A == sw {
		return lr.PortA
	}
	return lr.PortB
}

// attachPort resolves an SG endpoint to the switch port where its traffic
// enters (dst=false) or leaves (dst=true) the network.
func (o *Orchestrator) attachPort(svc *Service, ep sg.Endpoint, dst bool) (uint16, error) {
	if sap := o.cfg.View.SAPs[ep.Node]; sap != nil {
		return sap.Port, nil
	}
	svc.nfMu.Lock()
	dep := svc.NFs[ep.Node]
	svc.nfMu.Unlock()
	if dep == nil {
		return 0, fmt.Errorf("core: endpoint %q not deployed", ep.Node)
	}
	port, ok := dep.SwPorts[ep.Port]
	if !ok {
		return 0, fmt.Errorf("core: NF %q has no connected device %q", ep.Node, ep.Port)
	}
	return port, nil
}

// Undeploy tears a service down: steering rules out, VNFs stopped and
// disconnected, resources released, state Removed. Undeploy serializes
// with Heal per service (opMu), so it can never race a migration: it
// waits for an in-flight heal and then tears down the healed service.
func (o *Orchestrator) Undeploy(name string) error {
	if err := o.beginOp(); err != nil {
		return err
	}
	defer o.inflight.Done()
	o.mu.Lock()
	svc := o.services[name]
	o.mu.Unlock()
	if svc == nil {
		return fmt.Errorf("core: service %q not deployed", name)
	}
	svc.opMu.Lock()
	defer svc.opMu.Unlock()
	// A reserved name whose deploy is still in flight cannot be torn
	// down: its realization workers still mutate it.
	if st := svc.State(); st != StateRunning {
		return fmt.Errorf("core: service %q is %s, not Running", name, st)
	}
	o.mu.Lock()
	if o.services[name] != svc {
		o.mu.Unlock()
		return fmt.Errorf("core: service %q not deployed", name)
	}
	delete(o.services, name)
	o.mu.Unlock()
	err := o.teardown(svc)
	o.setState(svc, StateRemoved, nil)
	return err
}

// teardown rolls a (possibly partially deployed) service out of the
// infrastructure: paths removed in one batch, then its NFs released
// (releaseNFs), then the mapping's resources returned to the view.
// Teardown always runs to completion and must work against a broken
// substrate (see releaseNFs). Steering errors are still reported (the
// first one is returned), but a disconnected switch no longer fails the
// batch or leaks its VLAN/tag ids (see Steering.RemovePaths).
func (o *Orchestrator) teardown(svc *Service) error {
	var firstErr error
	if len(svc.paths) > 0 {
		firstErr = o.cfg.Steering.RemovePaths(svc.paths)
		svc.paths = nil
	}

	svc.nfMu.Lock()
	deps := make([]*DeployedNF, 0, len(svc.NFs))
	for _, dep := range svc.NFs {
		deps = append(deps, dep)
	}
	svc.nfMu.Unlock()
	if err := o.releaseNFs(svc.Name, deps); firstErr == nil {
		firstErr = err
	}

	if m := svc.mapping(); m != nil {
		o.cfg.View.Release(m)
	}
	return firstErr
}

// releaseNFs undoes realizeEE for a set of NFs, per EE in parallel across
// EEs: every initiated VNF is stopped — one that never started too, so it
// stops holding EE capacity — and every connected device is disconnected,
// which removes its link and switch port; the agent then forgets the VNF.
// VNF-management failures from unreachable agents or crashed EEs (exactly
// what strands a service in Realizing/Steering when an EE dies mid-deploy)
// are skipped and logged rather than returned, since a dead EE's VNFs and
// ports are gone with it; the first ordinary rpc-error from a healthy
// agent is returned, since that VNF may still be running.
func (o *Orchestrator) releaseNFs(service string, deps []*DeployedNF) error {
	var (
		errMu    sync.Mutex
		firstErr error
	)
	skip := func(err error) {
		log.Printf("core: releasing %q: skipping unreachable agent step: %v", service, err)
	}
	handleMgmt := func(err error) {
		if err == nil {
			return
		}
		if !vnfagent.IsRPCError(err) || netconf.IsUnavailable(err) {
			skip(err)
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	byEE := map[string][]*DeployedNF{}
	for _, dep := range deps {
		if dep != nil {
			byEE[dep.EE] = append(byEE[dep.EE], dep)
		}
	}
	var wg sync.WaitGroup
	for ee, deps := range byEE {
		sort.Slice(deps, func(i, j int) bool { return deps[i].VNFID < deps[j].VNFID })
		wg.Add(1)
		go func(ee string, deps []*DeployedNF) {
			defer wg.Done()
			pool, err := o.pool(ee)
			if err != nil {
				skip(err)
				return
			}
			// One flight carries every stop and disconnect; each reply is
			// classified on its own. The closure returns the flight's
			// error so Pool.Do can tell a broken transport (session
			// discarded) from an rpc-error (session stays pooled); its
			// return only matters here when the closure never ran (dial
			// failure = unreachable agent).
			ran := false
			err = pool.Do(func(client *vnfagent.Client) error {
				ran = true
				var ops []*yang.Data
				for _, dep := range deps {
					ops = append(ops, vnfagent.StopVNFOp(dep.VNFID))
					for _, dev := range slices.Sorted(maps.Keys(dep.SwPorts)) {
						ops = append(ops, vnfagent.DisconnectVNFOp(dep.VNFID, dev))
					}
				}
				replies, err := client.Calls(ops...)
				for _, reply := range replies {
					handleMgmt(netconf.ReplyError(reply))
				}
				if err != nil && !vnfagent.IsRPCError(err) {
					skip(err)
				}
				return err
			})
			if err != nil && !ran {
				skip(err)
			}
		}(ee, deps)
	}
	wg.Wait()
	return firstErr
}

// Service returns a deployed service by name, or nil.
func (o *Orchestrator) Service(name string) *Service {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.services[name]
}

// Services lists deployed service names, sorted.
func (o *Orchestrator) Services() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.services))
	for n := range o.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close releases management sessions.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, p := range o.pools {
		p.Close()
	}
	o.pools = map[string]*vnfagent.Pool{}
}

// ChainFlowStats sums steered-traffic counters across a service's path
// ingress switches: real-time management information on running chains.
func (o *Orchestrator) ChainFlowStats(name string) (packets, bytes uint64, err error) {
	svc := o.Service(name)
	if svc == nil {
		return 0, 0, fmt.Errorf("core: service %q not deployed", name)
	}
	// A reserved name whose deploy is still in flight has no (stable)
	// mapping to walk yet; the state read also orders this goroutine
	// after the deploy goroutine's Mapping write.
	if st := svc.State(); st != StateRunning {
		return 0, 0, fmt.Errorf("core: service %q is %s, not Running", name, st)
	}
	for _, route := range svc.mapping().Routes {
		dpid := o.cfg.View.Switches[route[0]]
		conn := o.cfg.Controller.Connection(dpid)
		if conn == nil {
			continue
		}
		flows, err := conn.FlowStats(openflow.MatchAll(), 2*time.Second)
		if err != nil {
			return 0, 0, err
		}
		for _, f := range flows {
			if f.Priority == steering.PrioritySteering {
				packets += f.PacketCount
				bytes += f.ByteCount
			}
		}
	}
	return packets, bytes, nil
}
