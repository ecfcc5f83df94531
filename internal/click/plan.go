package click

import "sync"

// A plan is a configuration compiled once: the parsed declarations, the
// connections resolved to declaration indexes and checked against the
// element port counts, and the processing the push/pull negotiation
// settled for every port. Every VNF of one catalog type and parameter set
// renders the same configuration text, so a deploy builds its routers
// from a cached plan instead of parsing and negotiating again.
//
// A plan holds no element: each router built from it gets fresh elements,
// configured from the plan's arguments, so no counter, queue or filter
// state is shared. What routers do share — the declarations, the element
// order and the negotiated processing slices — is never written after
// compile.
type plan struct {
	decls []configDecl
	order []string    // declaration names, in order
	ports []planPorts // by declaration index
	conns []planConn
}

// planPorts is one element's port counts and negotiated processing.
type planPorts struct {
	nIn, nOut       int
	inProc, outProc []Processing
}

// planConn is a connection between declaration indexes.
type planConn struct {
	from, fromPort, to, toPort int
}

// maxPlans bounds the plan cache: configurations carry tenant
// parameters, so their texts are not a closed set.
const maxPlans = 256

// planCache maps configuration text to its compiled plan. Only
// configurations that compiled are cached; one that fails is compiled,
// and fails, again.
type planCache struct {
	mu sync.Mutex
	m  map[string]*plan
}

var plans = planCache{m: map[string]*plan{}}

func (c *planCache) get(config string) *plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[config]
}

// put caches p, evicting an arbitrary plan when the cache is full.
func (c *planCache) put(config string, p *plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[config]; !ok && len(c.m) >= maxPlans {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[config] = p
}
