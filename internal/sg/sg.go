// Package sg models ESCAPE's service graphs (SG): the abstract
// description of a network service as SAPs (service access points), NFs
// (network functions from the VNF catalog) and directed links with
// bandwidth/delay requirements. Service graphs are what the service layer
// hands to the orchestrator (internal/core) for mapping onto
// infrastructure resources.
//
// The JSON representation doubles as the file format the MiniEdit-style
// front end (cmd/miniedit) edits and validates.
package sg

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// SAP is a service access point: where customer traffic enters or leaves
// the service. It binds to a host/port in the infrastructure at mapping
// time.
type SAP struct {
	// ID is unique within the graph ("sap1").
	ID string `json:"id"`
}

// NF is a network function instance within the service.
type NF struct {
	// ID is unique within the graph ("fw1").
	ID string `json:"id"`
	// Type names a catalog entry ("firewall").
	Type string `json:"type"`
	// Params are catalog template parameters.
	Params map[string]string `json:"params,omitempty"`
	// CPU/Mem override the catalog defaults when non-zero.
	CPU float64 `json:"cpu,omitempty"`
	Mem int     `json:"mem,omitempty"`
}

// Endpoint references a node port within the graph. Port is the VNF
// device name ("in"/"out") for NFs and ignored for SAPs.
type Endpoint struct {
	Node string `json:"node"`
	Port string `json:"port,omitempty"`
}

// Link is a directed SG link with traffic requirements.
type Link struct {
	// ID is unique within the graph ("l1").
	ID  string   `json:"id"`
	Src Endpoint `json:"src"`
	Dst Endpoint `json:"dst"`
	// Bandwidth demand in bits per second (0 = best effort).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// MaxDelay bounds the one-way latency of the mapped path (0 = none).
	MaxDelay time.Duration `json:"max_delay,omitempty"`
	// IngressTag/EgressTag stitch this link to traffic outside the
	// service, with tags the tenant chooses: a non-zero IngressTag means
	// the link's traffic arrives carrying that VLAN id (matched and
	// consumed at the first hop), a non-zero EgressTag means the traffic
	// must leave tagged with that id (pushed at the last hop). Zero on
	// ordinary links.
	IngressTag uint16 `json:"ingress_tag,omitempty"`
	EgressTag  uint16 `json:"egress_tag,omitempty"`
}

// Stitch tags live in [MinStitchTag, MaxStitchTag]: the 802.1Q range
// reserved for tenant handoffs. Nothing allocates them; the tenant sets
// them on its graph, and the api holds each tenant to its own block of
// the range. Ids below MinStitchTag belong to the steering layer's
// segment-VLAN allocator (steering.MaxSegmentVLAN = MinStitchTag-1), so
// a tenant's tag can never collide with an allocator-assigned one.
const (
	MinStitchTag = 3000
	MaxStitchTag = 4094
)

// Requirement is an end-to-end constraint on a sub-graph: it applies to
// every chain running from SAP From to SAP To (the paper's "delay or
// bandwidth requirement on a sub-graph"). MaxDelay bounds the summed
// propagation delay of all mapped paths along the chain; Bandwidth is a
// minimum demand applied to every chain link.
type Requirement struct {
	ID        string        `json:"id"`
	From      string        `json:"from"`
	To        string        `json:"to"`
	MaxDelay  time.Duration `json:"max_delay,omitempty"`
	Bandwidth float64       `json:"bandwidth,omitempty"`
}

// Graph is a service graph.
type Graph struct {
	Name  string         `json:"name"`
	SAPs  []*SAP         `json:"saps"`
	NFs   []*NF          `json:"nfs"`
	Links []*Link        `json:"links"`
	Reqs  []*Requirement `json:"reqs,omitempty"`
}

// SAP returns a SAP by id, or nil.
func (g *Graph) SAP(id string) *SAP {
	for _, s := range g.SAPs {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// NF returns an NF by id, or nil.
func (g *Graph) NF(id string) *NF {
	for _, n := range g.NFs {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// Link returns a link by id, or nil.
func (g *Graph) Link(id string) *Link {
	for _, l := range g.Links {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// IsSAP reports whether id names a SAP.
func (g *Graph) IsSAP(id string) bool { return g.SAP(id) != nil }

// Validate checks structural well-formedness: unique ids, resolvable
// endpoints, NF ports named, no self-loops, and SAPs used by at least one
// link.
func (g *Graph) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("sg: graph needs a name")
	}
	ids := map[string]string{}
	for _, s := range g.SAPs {
		if s.ID == "" {
			return fmt.Errorf("sg: SAP with empty id")
		}
		if prev, dup := ids[s.ID]; dup {
			return fmt.Errorf("sg: id %q used by both %s and SAP", s.ID, prev)
		}
		ids[s.ID] = "SAP"
	}
	for _, n := range g.NFs {
		if n.ID == "" {
			return fmt.Errorf("sg: NF with empty id")
		}
		if n.Type == "" {
			return fmt.Errorf("sg: NF %q has no type", n.ID)
		}
		if prev, dup := ids[n.ID]; dup {
			return fmt.Errorf("sg: id %q used by both %s and NF", n.ID, prev)
		}
		// A CPU demand, unlike a capacity, must be whole micro-cores.
		if c, err := CPUOf(n.CPU); err != nil || float64(c)/1e6 != n.CPU || n.Mem < 0 {
			return fmt.Errorf("sg: NF %q has negative resources or a cpu %v not in whole micro-cores within int64", n.ID, n.CPU)
		}
		ids[n.ID] = "NF"
	}
	linkIDs := map[string]bool{}
	sapUsed := map[string]bool{}
	for _, l := range g.Links {
		if l.ID == "" {
			return fmt.Errorf("sg: link with empty id")
		}
		if linkIDs[l.ID] {
			return fmt.Errorf("sg: duplicate link id %q", l.ID)
		}
		linkIDs[l.ID] = true
		for _, ep := range []Endpoint{l.Src, l.Dst} {
			kind, known := ids[ep.Node]
			if !known {
				return fmt.Errorf("sg: link %q references unknown node %q", l.ID, ep.Node)
			}
			if kind == "NF" && ep.Port == "" {
				return fmt.Errorf("sg: link %q endpoint %q needs a port name", l.ID, ep.Node)
			}
			if kind == "SAP" {
				sapUsed[ep.Node] = true
			}
		}
		if l.Src.Node == l.Dst.Node {
			return fmt.Errorf("sg: link %q is a self-loop on %q", l.ID, l.Src.Node)
		}
		if _, err := BWOf(l.Bandwidth); err != nil || l.MaxDelay < 0 {
			return fmt.Errorf("sg: link %q has negative requirements or a bandwidth %v beyond int64", l.ID, l.Bandwidth)
		}
		for _, tag := range []uint16{l.IngressTag, l.EgressTag} {
			if tag != 0 && (tag < MinStitchTag || tag > MaxStitchTag) {
				return fmt.Errorf("sg: link %q stitch tag %d outside [%d, %d]",
					l.ID, tag, MinStitchTag, MaxStitchTag)
			}
		}
	}
	for _, s := range g.SAPs {
		if !sapUsed[s.ID] {
			return fmt.Errorf("sg: SAP %q is not connected", s.ID)
		}
	}
	reqIDs := map[string]bool{}
	for _, r := range g.Reqs {
		if r.ID == "" {
			return fmt.Errorf("sg: requirement with empty id")
		}
		if reqIDs[r.ID] {
			return fmt.Errorf("sg: duplicate requirement id %q", r.ID)
		}
		reqIDs[r.ID] = true
		if g.SAP(r.From) == nil || g.SAP(r.To) == nil {
			return fmt.Errorf("sg: requirement %q endpoints must be SAPs", r.ID)
		}
		if _, err := BWOf(r.Bandwidth); err != nil || r.MaxDelay < 0 {
			return fmt.Errorf("sg: requirement %q has negative values or a bandwidth %v beyond int64", r.ID, r.Bandwidth)
		}
		if r.MaxDelay == 0 && r.Bandwidth == 0 {
			return fmt.Errorf("sg: requirement %q constrains nothing", r.ID)
		}
	}
	return nil
}

// Chain is one service chain: an alternating SAP→NF*→SAP node sequence
// with the links that realize it.
type Chain struct {
	Nodes []string // node ids, first and last are SAPs
	Links []*Link  // len(Nodes)-1 links
}

// String renders "sap1 -> fw1 -> sap2".
func (c *Chain) String() string {
	out := ""
	for i, n := range c.Nodes {
		if i > 0 {
			out += " -> "
		}
		out += n
	}
	return out
}

// Chains extracts all maximal SAP-to-SAP chains by walking links forward
// from each SAP. Branching NFs yield one chain per branch.
func (g *Graph) Chains() ([]*Chain, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g.ChainsUnchecked()
}

// ChainsUnchecked is Chains without the structural re-validation, for
// callers that have already run Validate on the exact same graph (the
// orchestrator validates once per admission and then needs the chain
// list on its hot path). Chain-shape errors — dead ends, cycles — are
// still detected by the walk itself.
func (g *Graph) ChainsUnchecked() ([]*Chain, error) {
	// Outgoing adjacency, links in sorted-id order per node. One flat
	// sort plus a grouping pass: the per-admission profile showed the
	// old per-node map-of-slices plus closure-recursive walk dominated
	// allocation (≈47% of objects on the E14 mid grid).
	links := linkSortScratch.Get().(*[]*Link)
	*links = append((*links)[:0], g.Links...)
	defer linkSortScratch.Put(links)
	sort.Slice(*links, func(i, j int) bool {
		if (*links)[i].Src.Node != (*links)[j].Src.Node {
			return (*links)[i].Src.Node < (*links)[j].Src.Node
		}
		return (*links)[i].ID < (*links)[j].ID
	})
	out := make(map[string][]*Link, len(g.SAPs)+len(g.NFs))
	for lo := 0; lo < len(*links); {
		hi := lo + 1
		for hi < len(*links) && (*links)[hi].Src.Node == (*links)[lo].Src.Node {
			hi++
		}
		out[(*links)[lo].Src.Node] = (*links)[lo:hi:hi]
		lo = hi
	}

	var chains []*Chain
	nodes := make([]string, 0, len(g.NFs)+2)
	path := make([]*Link, 0, len(g.NFs)+1)
	visited := make(map[string]bool, len(g.Links))
	var walk func(node string) error
	walk = func(node string) error {
		if g.IsSAP(node) && len(nodes) > 1 {
			chains = append(chains, &Chain{
				Nodes: append([]string(nil), nodes...),
				Links: append([]*Link(nil), path...),
			})
			return nil
		}
		next := out[node]
		if len(next) == 0 && len(nodes) > 1 {
			return fmt.Errorf("sg: chain dead-ends at NF %q", node)
		}
		for _, l := range next {
			if visited[l.ID] {
				return fmt.Errorf("sg: cycle through link %q", l.ID)
			}
			visited[l.ID] = true
			nodes = append(nodes, l.Dst.Node)
			path = append(path, l)
			if err := walk(l.Dst.Node); err != nil {
				return err
			}
			nodes = nodes[:len(nodes)-1]
			path = path[:len(path)-1]
			delete(visited, l.ID)
		}
		return nil
	}
	for _, s := range g.SAPs {
		nodes = append(nodes[:0], s.ID)
		path = path[:0]
		for k := range visited {
			delete(visited, k)
		}
		if err := walk(s.ID); err != nil {
			return nil, err
		}
	}
	return chains, nil
}

// linkSortScratch pools the link-sorting scratch slice Chains uses: the
// walk runs once per admission, so the buffer churns exactly at the
// admission rate.
var linkSortScratch = sync.Pool{New: func() any { s := make([]*Link, 0, 16); return &s }}

// MarshalJSON round trip helpers: ToJSON serializes with indentation.
func (g *Graph) ToJSON() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// FromJSON parses and validates a graph.
func FromJSON(data []byte) (*Graph, error) {
	var g Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("sg: parsing graph: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// NewChainGraph is a convenience constructor for the most common shape:
// one linear chain sap1 → nf1 → … → nfN → sap2. Each nfTypes entry
// becomes an NF of that catalog type with default in/out ports.
func NewChainGraph(name string, nfTypes ...string) *Graph {
	g := &Graph{Name: name}
	g.SAPs = []*SAP{{ID: "sap1"}, {ID: "sap2"}}
	prev := Endpoint{Node: "sap1"}
	for i, t := range nfTypes {
		id := fmt.Sprintf("nf%d", i+1)
		g.NFs = append(g.NFs, &NF{ID: id, Type: t})
		g.Links = append(g.Links, &Link{
			ID:  fmt.Sprintf("l%d", i+1),
			Src: prev,
			Dst: Endpoint{Node: id, Port: "in"},
		})
		prev = Endpoint{Node: id, Port: "out"}
	}
	g.Links = append(g.Links, &Link{
		ID:  fmt.Sprintf("l%d", len(nfTypes)+1),
		Src: prev,
		Dst: Endpoint{Node: "sap2"},
	})
	return g
}
