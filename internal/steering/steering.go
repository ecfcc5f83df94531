// Package steering implements ESCAPE's traffic-steering module: the POX
// component that installs flow entries realizing mapped service chains.
// Each SG-link segment (SAP→VNF, VNF→VNF, VNF→SAP) becomes a concrete
// port-level path across one or more switches; the steering module tags
// a multi-hop segment's traffic with a dedicated VLAN at the ingress
// switch, forwards by (VLAN, in-port) at transit switches and strips the
// tag at the egress switch, so chained traffic never interferes with
// ordinary forwarding or with other chains. A single-hop segment needs no
// tag: its one rule matches on the in-port alone.
//
// Paths install one at a time (InstallPath) or batched (InstallPaths):
// the batch groups every flow-mod per switch and ends with a single
// barrier per touched switch, so a whole service chain lands in
// O(switches) round-trips instead of O(hops).
package steering

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"escape/internal/openflow"
	"escape/internal/pox"
	"escape/internal/sg"
)

// Hop is one switch traversal of a concrete path.
type Hop struct {
	DPID    uint64
	InPort  uint16
	OutPort uint16
}

// Path is a concrete port-level path realizing one SG link.
type Path struct {
	// ID labels the path (usually the SG link id).
	ID   string
	Hops []Hop
	// Match narrows which ingress traffic enters the chain; zero value
	// means "everything arriving on the ingress port" (ESCAPE's
	// port-based classification). InPort is always overridden.
	Match openflow.Match
	// IngressVLAN, when non-zero, stitches this path to upstream traffic:
	// the first hop additionally matches that VLAN id and consumes the
	// tag (a port shared by several tenants' handoffs cannot tell their
	// services apart by in-port alone).
	IngressVLAN uint16
	// EgressVLAN, when non-zero, tags traffic leaving the last hop with
	// that VLAN id, handing the service off downstream.
	EgressVLAN uint16
}

// PrioritySteering is the flow-priority band of steering rules: above
// learning-switch entries, so chained traffic never falls through to
// ordinary forwarding. Exported so management layers (flow accounting in
// internal/core) can recognize steering entries in dumped flow tables.
const PrioritySteering uint16 = 30000

// maxSegmentVLAN caps the segment-VLAN allocator: ids above it are
// reserved for stitch tags (sg.Link.IngressTag/EgressTag, set by the
// tenant and validated into [sg.MinStitchTag, sg.MaxStitchTag]), so
// segment VLANs and stitch tags can never collide and cross-tenant
// mis-steering by id reuse is structurally impossible.
const maxSegmentVLAN uint16 = sg.MinStitchTag - 1

// Installed is a handle to an installed path, used for teardown.
type Installed struct {
	Path Path
	VLAN uint16 // 0 for a single-hop path
	// RuleCount is the number of flow entries installed.
	RuleCount int
}

// Steering is the controller component.
type Steering struct {
	ctrl *pox.Controller

	mu       sync.Mutex
	nextVLAN uint16
	free     []uint16 // released VLAN ids for reuse
	active   map[string]*Installed
}

// New creates the steering component bound to a controller.
func New(ctrl *pox.Controller) *Steering {
	return &Steering{ctrl: ctrl, nextVLAN: 100, active: map[string]*Installed{}}
}

// ComponentName implements pox.Component.
func (*Steering) ComponentName() string { return "steering" }

// ActivePaths reports the number of installed paths.
func (s *Steering) ActivePaths() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

func (s *Steering) allocVLAN() (uint16, error) {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id, nil
	}
	if s.nextVLAN > maxSegmentVLAN {
		return 0, fmt.Errorf("steering: out of segment VLAN ids")
	}
	id := s.nextVLAN
	s.nextVLAN++
	return id, nil
}

// register validates a batch and claims ids and VLANs under one lock.
// On error nothing is left registered.
func (s *Steering) register(paths []Path) ([]*Installed, error) {
	seen := map[string]bool{}
	for _, p := range paths {
		if len(p.Hops) == 0 {
			return nil, fmt.Errorf("steering: path %q has no hops", p.ID)
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("steering: duplicate path %q in batch", p.ID)
		}
		seen[p.ID] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range paths {
		if _, dup := s.active[p.ID]; dup {
			return nil, fmt.Errorf("steering: path %q already installed", p.ID)
		}
	}
	insts := make([]*Installed, 0, len(paths))
	undo := func() {
		for _, inst := range insts {
			delete(s.active, inst.Path.ID)
			if inst.VLAN != 0 {
				s.free = append(s.free, inst.VLAN)
			}
		}
	}
	for _, p := range paths {
		var vlan uint16
		if len(p.Hops) > 1 {
			var err error
			if vlan, err = s.allocVLAN(); err != nil {
				undo()
				return nil, err
			}
		}
		inst := &Installed{Path: p, VLAN: vlan}
		s.active[p.ID] = inst
		insts = append(insts, inst)
	}
	return insts, nil
}

// InstallPath installs the flow entries for one path and blocks until the
// switches confirm (barrier). Paths are identified by Path.ID; installing
// a duplicate id fails.
func (s *Steering) InstallPath(p Path) (*Installed, error) {
	insts, err := s.InstallPaths([]Path{p})
	if err != nil {
		return nil, err
	}
	return insts[0], nil
}

// InstallPaths installs a batch of paths (typically all SG links of one
// service) in one push: every flow-mod is sent first, grouped per switch,
// then a single barrier per touched switch confirms the whole batch. The
// batch is atomic with respect to the path registry — on any error every
// path of the batch is unregistered and already-sent rules are deleted
// best-effort.
func (s *Steering) InstallPaths(paths []Path) ([]*Installed, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	insts, err := s.register(paths)
	if err != nil {
		return nil, err
	}
	var mods []switchMod
	for _, inst := range insts {
		pm := flowMods(inst, openflow.FCAdd)
		inst.RuleCount = len(pm)
		mods = append(mods, pm...)
	}
	if err := s.sendMods(mods); err != nil {
		s.rollback(insts)
		return nil, err
	}
	return insts, nil
}

// rollback deletes whatever rules of a failed batch may have reached
// switches (best-effort, tolerating switches that died mid-batch) and
// unregisters the batch. A VLAN whose deletes were not all confirmed —
// delete error, or hops on a dead switch — is retained (leaked) rather
// than freed: stale rules on a live switch could otherwise capture a
// later chain that reuses the id.
func (s *Steering) rollback(insts []*Installed) {
	var mods []switchMod
	for _, inst := range insts {
		mods = append(mods, flowMods(inst, openflow.FCDeleteStrict)...)
	}
	dead, err := s.sendModsTolerant(mods, true)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, inst := range insts {
		delete(s.active, inst.Path.ID)
		if inst.VLAN != 0 && err == nil && !touchesDead(inst, dead) {
			s.free = append(s.free, inst.VLAN)
		}
	}
}

// RemovePaths uninstalls a batch of paths in one per-switch push (the
// teardown mirror of InstallPaths). Unknown ids fail the whole call
// before any rule is touched.
func (s *Steering) RemovePaths(ids []string) error {
	if len(ids) == 0 {
		return nil
	}
	s.mu.Lock()
	insts := make([]*Installed, 0, len(ids))
	for _, id := range ids {
		inst := s.active[id]
		if inst == nil {
			s.mu.Unlock()
			return fmt.Errorf("steering: path %q not installed", id)
		}
		insts = append(insts, inst)
	}
	for _, inst := range insts {
		delete(s.active, inst.Path.ID)
	}
	s.mu.Unlock()
	var mods []switchMod
	for _, inst := range insts {
		mods = append(mods, flowMods(inst, openflow.FCDeleteStrict)...)
	}
	// Deletes aimed at disconnected switches are skipped (their rules are
	// gone with the datapath) — without this, tearing a service down
	// across a dead switch would fail the whole batch.
	dead, err := s.sendModsTolerant(mods, true)
	if err != nil {
		// A VLAN whose delete was not confirmed may still be matched by
		// stale rules on some switch: leak it rather than let a later
		// path reuse it and capture another chain's traffic.
		return err
	}
	s.mu.Lock()
	for _, inst := range insts {
		// Same safeguard for skipped deletes: a path with hops on a
		// dead switch keeps (leaks) its VLAN, in case that datapath is
		// somehow still forwarding its stale rules.
		if inst.VLAN != 0 && !touchesDead(inst, dead) {
			s.free = append(s.free, inst.VLAN)
		}
	}
	s.mu.Unlock()
	return nil
}

// ReplacePaths atomically swaps a set of installed paths for their
// replacements in one batched push: every delete for the old rules and
// every add for the new ones is grouped per switch and confirmed with a
// single barrier per touched switch — the healing layer's re-steer
// primitive (ids are typically reused, so a chain's path identity
// survives its migration). Deletes targeting switches that are no longer
// connected are skipped (their rules died with the datapath); installs
// still require live switches. On error the new paths are rolled back
// and the old ones stay registered, so a subsequent teardown still finds
// every id.
func (s *Steering) ReplacePaths(removeIDs []string, paths []Path) ([]*Installed, error) {
	if len(removeIDs) == 0 {
		return s.InstallPaths(paths)
	}
	s.mu.Lock()
	oldInsts := make([]*Installed, 0, len(removeIDs))
	for _, id := range removeIDs {
		inst := s.active[id]
		if inst == nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("steering: path %q not installed", id)
		}
		oldInsts = append(oldInsts, inst)
	}
	for _, inst := range oldInsts {
		delete(s.active, inst.Path.ID)
	}
	s.mu.Unlock()

	restoreOld := func() {
		s.mu.Lock()
		for _, inst := range oldInsts {
			s.active[inst.Path.ID] = inst
		}
		s.mu.Unlock()
	}
	newInsts, err := s.register(paths)
	if err != nil {
		restoreOld()
		return nil, err
	}

	var mods []switchMod
	for _, inst := range oldInsts {
		mods = append(mods, flowMods(inst, openflow.FCDeleteStrict)...)
	}
	for _, inst := range newInsts {
		pm := flowMods(inst, openflow.FCAdd)
		inst.RuleCount = len(pm)
		mods = append(mods, pm...)
	}
	dead, err := s.sendModsTolerant(mods, true)
	if err != nil {
		s.rollback(newInsts)
		restoreOld()
		return nil, err
	}
	s.mu.Lock()
	for _, inst := range oldInsts {
		// Keep (leak) the VLAN of any old path whose delete was skipped
		// on a dead switch — see RemovePaths.
		if inst.VLAN != 0 && !touchesDead(inst, dead) {
			s.free = append(s.free, inst.VLAN)
		}
	}
	s.mu.Unlock()
	return newInsts, nil
}

// switchMod pairs one flow-mod with its target datapath.
type switchMod struct {
	dpid uint64
	fm   *openflow.FlowMod
}

// flowMods builds the rules realizing one path, one per hop.
func flowMods(inst *Installed, command uint16) []switchMod {
	p := inst.Path
	mods := make([]switchMod, 0, len(p.Hops))
	for i, hop := range p.Hops {
		match := p.Match
		if match == (openflow.Match{}) {
			match = openflow.MatchAll()
		}
		match.Wildcards &^= openflow.WildInPort
		match.InPort = hop.InPort
		// A VLAN is allocated only for multi-hop paths, so a tagged
		// path's first and last hops are distinct rules.
		actions := []openflow.Action{openflow.ActionOutput{Port: hop.OutPort}}
		if inst.VLAN != 0 {
			switch i {
			case 0:
				actions = []openflow.Action{
					openflow.ActionSetVLAN{VLAN: inst.VLAN},
					openflow.ActionOutput{Port: hop.OutPort},
				}
			case len(p.Hops) - 1:
				match.Wildcards &^= openflow.WildDLVLAN
				match.DLVLAN = inst.VLAN
				actions = []openflow.Action{
					openflow.ActionStripVLAN{},
					openflow.ActionOutput{Port: hop.OutPort},
				}
			default:
				match.Wildcards &^= openflow.WildDLVLAN
				match.DLVLAN = inst.VLAN
			}
		}
		if i == 0 && p.IngressVLAN != 0 {
			// Stitch ingress: only traffic carrying the upstream tag
			// enters, and the tag is consumed here — either rewritten
			// by this path's own SetVLAN or stripped explicitly.
			match.Wildcards &^= openflow.WildDLVLAN
			match.DLVLAN = p.IngressVLAN
			if _, retags := actions[0].(openflow.ActionSetVLAN); !retags {
				actions = append([]openflow.Action{openflow.ActionStripVLAN{}}, actions...)
			}
		}
		if i == len(p.Hops)-1 && p.EgressVLAN != 0 {
			// Stitch egress: tag the frame for downstream just before
			// it leaves on the last hop's out port.
			out := actions[len(actions)-1]
			actions = append(actions[:len(actions)-1],
				openflow.ActionSetVLAN{VLAN: p.EgressVLAN}, out)
		}
		fm := &openflow.FlowMod{
			Match:    match,
			Command:  command,
			Priority: PrioritySteering,
			BufferID: openflow.NoBuffer,
			Actions:  actions,
		}
		if command == openflow.FCDeleteStrict {
			fm.Actions = nil
			fm.OutPort = openflow.PortNone
		}
		mods = append(mods, switchMod{dpid: hop.DPID, fm: fm})
	}
	return mods
}

// sendMods hands each touched switch its flow-mods, in order, and a
// barrier request in one write, and blocks on the barrier replies (the
// switches in parallel) so the rules are live before traffic is admitted
// (demo step 4 depends on this).
func (s *Steering) sendMods(mods []switchMod) error {
	_, err := s.sendModsTolerant(mods, false)
	return err
}

// sendModsTolerant is sendMods with an escape hatch for teardown and
// healing: with skipDeadDeletes, delete commands aimed at a switch that
// is no longer connected are silently dropped — the rules died with the
// datapath, and refusing the whole batch would fail teardown outright.
// The skipped datapaths are reported so callers can keep (leak) the
// VLAN ids of paths whose deletes were never confirmed: if such a
// switch were in fact still forwarding, a reused VLAN could capture
// another chain's traffic. Non-delete commands always require a live
// switch.
func (s *Steering) sendModsTolerant(mods []switchMod, skipDeadDeletes bool) (map[uint64]bool, error) {
	isDelete := func(fm *openflow.FlowMod) bool {
		return fm.Command == openflow.FCDelete || fm.Command == openflow.FCDeleteStrict
	}
	// Each switch's mods, in order, and whether they are all deletes.
	type batch struct {
		conn    *pox.Connection
		fms     []*openflow.FlowMod
		deletes bool
	}
	var order []uint64
	batches := map[uint64]*batch{}
	for _, m := range mods {
		b := batches[m.dpid]
		if b == nil {
			b = &batch{deletes: true}
			batches[m.dpid] = b
			order = append(order, m.dpid)
		}
		b.fms = append(b.fms, m.fm)
		b.deletes = b.deletes && isDelete(m.fm)
	}
	dead := map[uint64]bool{}
	for _, dpid := range order {
		b := batches[dpid]
		if b.conn = s.ctrl.Connection(dpid); b.conn != nil {
			continue
		}
		if !skipDeadDeletes || !b.deletes {
			return dead, fmt.Errorf("steering: switch %#x not connected", dpid)
		}
		dead[dpid] = true
		delete(batches, dpid)
	}
	// One write and one barrier per switch, the switches in parallel.
	type result struct {
		dpid uint64
		err  error
	}
	results := make(chan result, len(batches))
	for dpid, b := range batches {
		go func() {
			results <- result{dpid, b.conn.FlowModsBarrier(b.fms, 5*time.Second)}
		}()
	}
	var firstErr error
	for range batches {
		r := <-results
		switch {
		case r.err == nil:
		case skipDeadDeletes && batches[r.dpid].deletes && errors.Is(r.err, pox.ErrNotSent):
			// A failed write of deletes means the datapath died under us
			// (its connection may outlive the pipe by a beat): same
			// treatment as not-connected.
			dead[r.dpid] = true
		case firstErr == nil:
			firstErr = fmt.Errorf("steering: flow-mods and barrier on %#x: %w", r.dpid, r.err)
		}
	}
	return dead, firstErr
}

// touchesDead reports whether any of a path's hops sits on a datapath
// whose deletes were skipped.
func touchesDead(inst *Installed, dead map[uint64]bool) bool {
	for _, hop := range inst.Path.Hops {
		if dead[hop.DPID] {
			return true
		}
	}
	return false
}
