package api

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"escape/internal/core"
	"escape/internal/sg"
)

// Quota caps one tenant's aggregate committed resources, measured in
// graph-level demand units (see core.Mapping.GraphDemand): CPU cores,
// memory MB and bandwidth over all SG links, plus a count of live
// services. Zero fields are unlimited.
type Quota struct {
	CPU      float64 `json:"cpu,omitempty"`
	Mem      int     `json:"mem,omitempty"`
	BW       float64 `json:"bw,omitempty"`
	Services int     `json:"services,omitempty"`
}

// vlanBlockSize is how many stitch tags each tenant owns exclusively.
// Blocks are carved from the [sg.MinStitchTag, sg.MaxStitchTag] range
// bottom-up; user-supplied ingress/egress tags on a tenant's graphs
// must fall inside its block, so two tenants can never collide on a
// tag even when they pin tags explicitly.
const vlanBlockSize = 16

// Tenant is one authenticated control-plane principal. The token is
// the bearer credential; VLANBase/vlanBlockSize delimit its private
// tag namespace (0 = none assigned, explicit tags rejected).
type Tenant struct {
	Name     string `json:"name"`
	Token    string `json:"token"`
	Quota    Quota  `json:"quota"`
	VLANBase int    `json:"vlan_base,omitempty"`
}

// vlanRange returns the tenant's [lo, hi] stitch-tag block, or (0, 0)
// when it has none.
func (t *Tenant) vlanRange() (lo, hi int) {
	if t.VLANBase == 0 {
		return 0, 0
	}
	return t.VLANBase, t.VLANBase + vlanBlockSize - 1
}

// ownsTag reports whether an explicit (non-zero) VLAN tag belongs to
// the tenant's block.
func (t *Tenant) ownsTag(tag int) bool {
	lo, hi := t.vlanRange()
	return lo != 0 && tag >= lo && tag <= hi
}

// checkGraphTags validates every explicit ingress/egress tag in g
// against the tenant's VLAN block.
func (t *Tenant) checkGraphTags(g *sg.Graph) error {
	for _, l := range g.Links {
		for _, tag := range [2]int{int(l.IngressTag), int(l.EgressTag)} {
			if tag == 0 {
				continue
			}
			if !t.ownsTag(tag) {
				lo, hi := t.vlanRange()
				if lo == 0 {
					return fmt.Errorf("api: tenant %q has no VLAN block; explicit tag %d on link %q not allowed", t.Name, tag, l.ID)
				}
				return fmt.Errorf("api: tag %d on link %q outside tenant %q VLAN block [%d,%d]", tag, l.ID, t.Name, lo, hi)
			}
		}
	}
	return nil
}

// ServiceName returns the backend service name for a tenant-local
// service: the tenant prefix is what lets the quota gate attribute a
// commit to its tenant from nothing but the mapping's graph name.
func ServiceName(tenant, service string) string { return tenant + "/" + service }

// tenantOf extracts the tenant from a prefixed service name, or ""
// for untenanted (internal) services.
func tenantOf(serviceName string) string {
	if i := strings.IndexByte(serviceName, '/'); i > 0 {
		return serviceName[:i]
	}
	return ""
}

// newToken mints a bearer token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "tok_" + hex.EncodeToString(b[:])
}

// usage is one tenant's live committed demand, in GraphDemand's units.
type usage struct {
	cpu      sg.CPU
	mem      int
	bw       sg.BW
	services int
}

// check is the one quota comparison, shared by the API's advisory
// pre-check and the commit gate: it reports the first dimension in which
// usage u plus demand d passes the quota. Quotas round to usage's exact
// units, so the sums compare without a tolerance.
func (q Quota) check(tenant string, u, d usage) error {
	cpu, _ := sg.CPUOf(q.CPU)
	bw, _ := sg.BWOf(q.BW)
	switch {
	case q.CPU > 0 && u.cpu+d.cpu > cpu:
		return &quotaError{Tenant: tenant, Dim: "cpu", Want: u.cpu + d.cpu, Limit: cpu}
	case q.Mem > 0 && u.mem+d.mem > q.Mem:
		return &quotaError{Tenant: tenant, Dim: "mem", Want: u.mem + d.mem, Limit: q.Mem}
	case q.BW > 0 && u.bw+d.bw > bw:
		return &quotaError{Tenant: tenant, Dim: "bw", Want: u.bw + d.bw, Limit: bw}
	case q.Services > 0 && u.services+d.services > q.Services:
		return &quotaError{Tenant: tenant, Dim: "services", Want: u.services + d.services, Limit: q.Services}
	}
	return nil
}

// validate rejects a quota no usage can be measured against: a negative
// or out-of-range amount.
func (q Quota) validate() error {
	if _, err := sg.CPUOf(q.CPU); err != nil || q.Mem < 0 || q.Services < 0 {
		return fmt.Errorf("api: quota %+v is negative or out of range", q)
	}
	_, err := sg.BWOf(q.BW)
	return err
}

// QuotaGate enforces per-tenant quotas at the only place that cannot
// be raced past: the resource view's commit step. Admit runs under the
// view's commit lock after capacity validation and before the epoch is
// published, so a tenant's aggregate usage can never overshoot its
// quota no matter how many deploys race; Released runs under the same
// lock when a mapping's resources return. Mappings whose graph name
// carries no tenant prefix (or an unknown tenant) pass through
// unmetered — the gate covers the control plane's tenants, not
// internal services.
type QuotaGate struct {
	mu      sync.Mutex
	tenants map[string]*Tenant // by name; shared with the registry
	used    map[string]*usage
}

// NewQuotaGate builds a gate over a tenant lookup table. The map is
// owned by the caller (the Server's registry) and read under the
// gate's lock; callers mutate it only via gate methods.
func NewQuotaGate() *QuotaGate {
	return &QuotaGate{tenants: map[string]*Tenant{}, used: map[string]*usage{}}
}

// SetTenant installs or updates a tenant's quota record.
func (qg *QuotaGate) SetTenant(t *Tenant) {
	qg.mu.Lock()
	qg.tenants[t.Name] = t
	qg.mu.Unlock()
}

// Usage reports a tenant's committed demand.
func (qg *QuotaGate) Usage(name string) (cpu sg.CPU, mem int, bw sg.BW, services int) {
	qg.mu.Lock()
	defer qg.mu.Unlock()
	if u := qg.used[name]; u != nil {
		return u.cpu, u.mem, u.bw, u.services
	}
	return 0, 0, 0, 0
}

// ErrQuotaExceeded marks a quota rejection; the API layer maps it to
// HTTP 403 rather than the generic mapping-failure 409.
type quotaError struct {
	Tenant string
	Dim    string // "cpu" | "mem" | "bw" | "services"
	Want   any    // in the dimension's unit: sg.CPU, MB, sg.BW, services
	Limit  any
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("api: tenant %q over %s quota (want %v, limit %v)", e.Tenant, e.Dim, e.Want, e.Limit)
}

// Admit implements core.CommitGate.
func (qg *QuotaGate) Admit(m *core.Mapping) error {
	tenant := tenantOf(m.Graph.Name)
	if tenant == "" {
		return nil
	}
	qg.mu.Lock()
	defer qg.mu.Unlock()
	t := qg.tenants[tenant]
	if t == nil {
		return nil
	}
	d := usage{services: 1}
	d.cpu, d.mem, d.bw = m.GraphDemand()
	u := qg.used[tenant]
	if u == nil {
		u = &usage{}
		qg.used[tenant] = u
	}
	if err := t.Quota.check(tenant, *u, d); err != nil {
		return err
	}
	u.cpu += d.cpu
	u.mem += d.mem
	u.bw += d.bw
	u.services += d.services
	return nil
}

// Released implements core.CommitGate.
func (qg *QuotaGate) Released(m *core.Mapping) {
	tenant := tenantOf(m.Graph.Name)
	if tenant == "" {
		return
	}
	qg.mu.Lock()
	defer qg.mu.Unlock()
	u := qg.used[tenant]
	if u == nil {
		return
	}
	cpu, mem, bw := m.GraphDemand()
	u.cpu -= cpu
	u.mem -= mem
	u.bw -= bw
	u.services--
}
