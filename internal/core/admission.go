package core

import (
	"fmt"
	"sync/atomic"

	"escape/internal/sg"
)

// admitOptimisticRetries bounds lock-free re-mapping before an admitter
// falls back to the serialization mutex (it still validates there:
// optimistic winners don't hold that mutex).
const admitOptimisticRetries = 8

// admitFallbackRetries bounds validation retries under the mutex. A
// conflict usually means another admission committed, but exclusion-mask
// transitions also invalidate in-flight mappings without anyone
// admitting, so an unbounded loop could livelock under pathological
// mask churn; exhausting this budget is reported as an admission error.
const admitFallbackRetries = 64

// admissionCounters aggregates admission-protocol telemetry.
type admissionCounters struct {
	admitted  atomic.Uint64
	conflicts atomic.Uint64
	fallbacks atomic.Uint64
}

// AdmissionStats is a snapshot of the admission telemetry: Admitted
// successful admissions (deploy + heal), Conflicts validation failures
// that forced a re-map, SerializedFallbacks admitters that exhausted
// their optimistic retry budget.
type AdmissionStats struct {
	Admitted            uint64
	Conflicts           uint64
	SerializedFallbacks uint64
}

// AdmissionStats reports the protocol counters since the view was built.
func (rv *ResourceView) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted:            rv.stats.admitted.Load(),
		Conflicts:           rv.stats.conflicts.Load(),
		SerializedFallbacks: rv.stats.fallbacks.Load(),
	}
}

// AdmitAndCommit runs one admission cycle — map the graph, then commit
// the mapping — such that a successful return means the committed
// resources were actually free: parallel Deploys can never oversubscribe
// the view. Mapping failures commit nothing.
//
// The mapper runs lock-free against a pinned epoch; validate-and-commit
// then re-checks, under the view's short write lock, only the EEs and
// links the mapping touches — against the current epoch, including
// exclusion masks that landed after the snapshot. Concurrent deploys
// that don't contend for the same capacity never serialize. On conflict
// the admission re-maps on fresher state, and after
// admitOptimisticRetries conflicts it serializes with the other
// fallen-back admitters.
func (rv *ResourceView) AdmitAndCommit(m Mapper, g *sg.Graph) (*Mapping, error) {
	for attempt := 0; attempt < admitOptimisticRetries; attempt++ {
		mapping, err := m.Map(g, rv)
		if err != nil {
			return nil, err
		}
		ok, err := rv.tryCommit(mapping)
		if err != nil {
			return nil, err
		}
		if ok {
			rv.stats.admitted.Add(1)
			return mapping, nil
		}
		rv.stats.conflicts.Add(1)
	}
	// Pathological contention: serialize with the other fallen-back
	// admitters (still validated — optimistic winners commit without
	// admitMu).
	rv.stats.fallbacks.Add(1)
	rv.admitMu.Lock()
	defer rv.admitMu.Unlock()
	return rv.mapValidateCommit(m, g)
}

// mapValidateCommit runs bounded map → validate → commit rounds under
// admitMu (held by the caller).
func (rv *ResourceView) mapValidateCommit(m Mapper, g *sg.Graph) (*Mapping, error) {
	for attempt := 0; attempt < admitFallbackRetries; attempt++ {
		mapping, err := m.Map(g, rv)
		if err != nil {
			return nil, err
		}
		ok, err := rv.tryCommit(mapping)
		if err != nil {
			return nil, err
		}
		if ok {
			rv.stats.admitted.Add(1)
			return mapping, nil
		}
		rv.stats.conflicts.Add(1)
	}
	return nil, fmt.Errorf("core: admitting %q: %d consecutive validation conflicts (extreme contention or mask churn)",
		g.Name, admitFallbackRetries)
}

// TryCommitMapping validates and commits an externally computed mapping
// against the current epoch without re-running any mapper: the seam the
// parallel scenario player uses to merge speculative Map results in
// trace order. A false return with nil error is a validation conflict
// (the caller should re-map, typically via AdmitAndCommit); a non-nil
// error is a permanent commit-gate rejection.
func (rv *ResourceView) TryCommitMapping(m *Mapping) (bool, error) {
	ok, err := rv.tryCommit(m)
	if ok {
		rv.stats.admitted.Add(1)
	} else if err == nil {
		rv.stats.conflicts.Add(1)
	}
	return ok, err
}

// tryCommit validates a mapping against the current epoch — only the
// resources it touches — and publishes the commit if everything still
// fits. A false return with nil error is a validation conflict (re-map
// and retry); a non-nil error is a permanent commit-gate rejection (e.g.
// a tenant over quota) that retrying cannot fix. The float tolerance
// mirrors the conformance suite's.
func (rv *ResourceView) tryCommit(m *Mapping) (bool, error) {
	rv.buildTopoIndex()
	rv.mu.Lock()
	defer rv.mu.Unlock()
	cur := rv.state.Load()

	cpuAdd := map[string]float64{}
	memAdd := map[string]int{}
	for nfID, ee := range m.Placements {
		cpu, mem := m.nfDemand(m.Graph.NF(nfID))
		cpuAdd[ee] += cpu
		memAdd[ee] += mem
	}
	bwAdd := map[linkKey]float64{}
	linksUsed := map[linkKey]bool{}
	for linkID, route := range m.Routes {
		l := m.Graph.Link(linkID)
		if l == nil {
			continue
		}
		bw := m.linkDemand(l)
		for i := 0; i+1 < len(route); i++ {
			k := mkLinkKey(route[i], route[i+1])
			linksUsed[k] = true
			if bw > 0 {
				if lr := rv.linkBetween(route[i], route[i+1]); lr != nil && lr.Bandwidth > 0 {
					bwAdd[k] += bw
				}
			}
		}
	}

	for ee, add := range cpuAdd {
		res := rv.EEs[ee]
		if res == nil || cur.excludedEE(ee) {
			return false, nil
		}
		if cur.cpu(ee)+add > res.CPU+1e-9 || cur.mem(ee)+memAdd[ee] > res.Mem {
			return false, nil
		}
	}
	for k := range linksUsed {
		if cur.excludedLink(k) {
			return false, nil
		}
		if rv.linkIdx[k] == nil {
			return false, nil
		}
	}
	for k, add := range bwAdd {
		if cur.bw(k)+add > rv.linkIdx[k].Bandwidth+1e-9 {
			return false, nil
		}
	}

	if rv.gate != nil {
		if err := rv.gate.Admit(m); err != nil {
			return false, err
		}
	}
	rv.publish(func(mu *mutation) { applyMapping(mu, m, 1) })
	return true, nil
}
