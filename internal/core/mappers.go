package core

import (
	"fmt"
	"math"
	"math/rand"

	"escape/internal/catalog"
	"escape/internal/sg"
)

// RegisteredMappers returns one instance of every mapping algorithm the
// package ships (the registry behind experiment E4 and the cross-mapper
// conformance suite). RandomMapper gets a fixed seed so the whole set is
// deterministic for a fixed input.
func RegisteredMappers(cat *catalog.Catalog) []Mapper {
	return []Mapper{
		&GreedyMapper{Catalog: cat},
		&KSPMapper{Catalog: cat},
		&BacktrackMapper{Catalog: cat},
		&RandomMapper{Catalog: cat, Seed: 7},
	}
}

// GreedyMapper places each NF on the first EE (by name) with enough free
// compute, then routes links on shortest feasible paths. Fast, no
// backtracking: a placement that strands a later link fails the request.
type GreedyMapper struct {
	// Catalog resolves default resource demands (nil = SG values only).
	Catalog *catalog.Catalog
}

// MapperName implements Mapper.
func (*GreedyMapper) MapperName() string { return "greedy" }

// Map implements Mapper.
func (gm *GreedyMapper) Map(g *sg.Graph, rv *ResourceView) (*Mapping, error) {
	mc, err := newMapContext(g, rv, gm.Catalog)
	if err != nil {
		return nil, err
	}
	placements := map[string]string{}
	for _, nf := range mc.nfsInChainOrder() {
		cpu, mem := NFDemand(mc.cat, nf)
		placed := false
		for _, ee := range rv.eeNamesShared() {
			if mc.caps.FitsEE(ee, cpu, mem) {
				mc.caps.TakeEE(ee, cpu, mem)
				placements[nf.ID] = ee
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("core: greedy: no EE fits NF %q (cpu=%v mem=%d)", nf.ID, cpu, mem)
		}
	}
	routes, err := mc.routeLinks(placements, mc.caps)
	if err != nil {
		return nil, fmt.Errorf("core: greedy: %w", err)
	}
	return &Mapping{Graph: g, Placements: placements, Routes: routes, Demands: mc.demands, Catalog: gm.Catalog}, nil
}

// RandomMapper places NFs on uniformly random feasible EEs: the baseline
// of experiment E4. Deterministic for a fixed Seed.
type RandomMapper struct {
	Catalog *catalog.Catalog
	Seed    int64
	// Retries bounds re-rolls when routing fails (default 8).
	Retries int
}

// MapperName implements Mapper.
func (*RandomMapper) MapperName() string { return "random" }

// Map implements Mapper.
func (rm *RandomMapper) Map(g *sg.Graph, rv *ResourceView) (*Mapping, error) {
	retries := rm.Retries
	if retries <= 0 {
		retries = 8
	}
	rng := rand.New(rand.NewSource(rm.Seed))
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
		mc, err := newMapContext(g, rv, rm.Catalog)
		if err != nil {
			return nil, err
		}
		placements := map[string]string{}
		ok := true
		for _, nf := range mc.nfsInChainOrder() {
			cpu, mem := NFDemand(mc.cat, nf)
			var candidates []string
			for _, ee := range rv.eeNamesShared() {
				if mc.caps.FitsEE(ee, cpu, mem) {
					candidates = append(candidates, ee)
				}
			}
			if len(candidates) == 0 {
				lastErr = fmt.Errorf("core: random: no EE fits NF %q", nf.ID)
				ok = false
				break
			}
			ee := candidates[rng.Intn(len(candidates))]
			mc.caps.TakeEE(ee, cpu, mem)
			placements[nf.ID] = ee
		}
		if !ok {
			continue
		}
		routes, err := mc.routeLinks(placements, mc.caps)
		if err != nil {
			lastErr = err
			continue
		}
		return &Mapping{Graph: g, Placements: placements, Routes: routes, Demands: mc.demands, Catalog: rm.Catalog}, nil
	}
	return nil, fmt.Errorf("core: random mapper failed after %d attempts: %w", retries, lastErr)
}

// BacktrackMapper searches NF→EE assignments exhaustively with
// branch-and-bound pruning and returns the feasible mapping minimizing
// total route hops. Exponential in the number of NFs: the "optimal"
// reference of experiment E4.
type BacktrackMapper struct {
	Catalog *catalog.Catalog
	// MaxNodes bounds the search tree (default 200000 expansions).
	MaxNodes int
}

// MapperName implements Mapper.
func (*BacktrackMapper) MapperName() string { return "backtrack" }

// Map implements Mapper.
func (bm *BacktrackMapper) Map(g *sg.Graph, rv *ResourceView) (*Mapping, error) {
	mc, err := newMapContext(g, rv, bm.Catalog)
	if err != nil {
		return nil, err
	}
	budget := bm.MaxNodes
	if budget <= 0 {
		budget = 200000
	}
	nfs := mc.nfsInChainOrder()
	ees := rv.eeNamesShared()

	var best *Mapping
	bestCost := int(^uint(0) >> 1)
	expansions := 0

	var assign func(idx int, placements map[string]string, caps *Capacities)
	assign = func(idx int, placements map[string]string, caps *Capacities) {
		if expansions >= budget {
			return
		}
		expansions++
		if idx == len(nfs) {
			// Complete assignment: route on a fork of the capacities.
			// Clone is O(touched) copy-on-write — it copies only this
			// branch's own reservations, not the whole network — so
			// forking inside the exponential search loop is cheap.
			routeCaps := caps.Clone()
			routes, err := mc.routeLinks(placements, routeCaps)
			if err != nil {
				return
			}
			m := &Mapping{Graph: g, Placements: clonePlacements(placements), Routes: routes, Demands: mc.demands, Catalog: bm.Catalog}
			if cost := m.TotalHops(); cost < bestCost {
				bestCost = cost
				best = m
			}
			return
		}
		nf := nfs[idx]
		cpu, mem := NFDemand(mc.cat, nf)
		for _, ee := range ees {
			if !caps.FitsEE(ee, cpu, mem) {
				continue
			}
			caps.TakeEE(ee, cpu, mem)
			placements[nf.ID] = ee
			assign(idx+1, placements, caps)
			delete(placements, nf.ID)
			caps.TakeEE(ee, -cpu, -mem)
		}
	}
	assign(0, map[string]string{}, mc.caps)
	if best == nil {
		return nil, fmt.Errorf("core: backtrack: no feasible mapping (%d expansions)", expansions)
	}
	return best, nil
}

func clonePlacements(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// KSPMapper is the chain-aware heuristic modeled on ESCAPE's default
// algorithm: NFs are placed along their chain in order, each on the
// feasible EE minimizing (hop distance from the previous attachment) +
// (hop distance to the chain's destination SAP), i.e. a shortest-path
// detour estimate. Near-greedy cost with near-backtrack acceptance on
// chain workloads (E4).
type KSPMapper struct {
	Catalog *catalog.Catalog
}

// MapperName implements Mapper.
func (*KSPMapper) MapperName() string { return "ksp" }

// Map implements Mapper.
func (km *KSPMapper) Map(g *sg.Graph, rv *ResourceView) (*Mapping, error) {
	mc, err := newMapContext(g, rv, km.Catalog)
	if err != nil {
		return nil, err
	}
	chains, err := mc.chainList()
	if err != nil {
		return nil, err
	}
	ix := rv.topo()
	placements := map[string]string{}
	for _, chain := range chains {
		if len(chain.Nodes) < 2 {
			continue
		}
		srcSAP := rv.SAPs[chain.Nodes[0]]
		dstSAP := rv.SAPs[chain.Nodes[len(chain.Nodes)-1]]
		if srcSAP == nil || dstSAP == nil {
			return nil, fmt.Errorf("core: ksp: chain %s has unbound SAPs", chain)
		}
		distToDst := rv.hopDistancesShared(dstSAP.Switch)
		prevSwitch := srcSAP.Switch
		for _, node := range chain.Nodes[1 : len(chain.Nodes)-1] {
			nf := g.NF(node)
			if nf == nil {
				continue
			}
			if ee, done := placements[node]; done {
				prevSwitch = rv.EEs[ee].Switch
				continue
			}
			cpu, mem := NFDemand(mc.cat, nf)
			distFromPrev := rv.hopDistancesShared(prevSwitch)
			if distFromPrev == nil || distToDst == nil {
				return nil, fmt.Errorf("core: ksp: no reachable EE fits NF %q", node)
			}
			bestEE := int32(-1)
			bestScore := int32(math.MaxInt32)
			for ee, sw := range ix.eeSw {
				if !mc.caps.fitsEE(int32(ee), cpu, mem) {
					continue
				}
				dp, dd := distFromPrev[sw], distToDst[sw]
				if dp < 0 || dd < 0 {
					continue // disconnected EE
				}
				if score := dp + dd; score < bestScore {
					bestScore = score
					bestEE = int32(ee)
				}
			}
			if bestEE < 0 {
				return nil, fmt.Errorf("core: ksp: no reachable EE fits NF %q", node)
			}
			mc.caps.takeEE(bestEE, cpu, mem)
			placements[node] = ix.eeNames[bestEE]
			prevSwitch = ix.ees[bestEE].Switch
		}
	}
	// NFs outside any chain fall back to greedy placement.
	for _, nf := range mc.nfsInChainOrder() {
		if _, done := placements[nf.ID]; done {
			continue
		}
		cpu, mem := NFDemand(mc.cat, nf)
		placed := false
		for _, ee := range rv.eeNamesShared() {
			if mc.caps.FitsEE(ee, cpu, mem) {
				mc.caps.TakeEE(ee, cpu, mem)
				placements[nf.ID] = ee
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("core: ksp: no EE fits NF %q", nf.ID)
		}
	}
	routes, err := mc.routeLinks(placements, mc.caps)
	if err != nil {
		return nil, fmt.Errorf("core: ksp: %w", err)
	}
	return &Mapping{Graph: g, Placements: placements, Routes: routes, Demands: mc.demands, Catalog: km.Catalog}, nil
}
