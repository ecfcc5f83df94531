package vnfagent

import (
	"errors"
	"fmt"
	"sync"

	"escape/internal/netconf"
)

// Pool keeps the orchestrator's NETCONF sessions to one agent: one per
// concurrent borrower. A borrow takes the session returned last, or
// dials one when none is idle, and gives it back when it ends, so the
// pool holds as many sessions as the EE ever had borrowers at once and
// a deploy never queues behind another service's flights on that EE.
// A borrower keeps its session for the whole borrow: the flights it
// sends arrive in its order. A session whose call fails at the transport
// layer is closed instead of given back.
type Pool struct {
	addr string

	mu     sync.Mutex
	idle   []*Client // returned sessions, the last returned on top
	closed bool
}

// NewPool creates the pool for the agent at addr.
func NewPool(addr string) *Pool {
	return &Pool{addr: addr}
}

// Do borrows a session (the last one returned, or a fresh dial when none
// is idle), runs f with it and returns it to the pool. f's error is
// passed through: an application-level rpc-error keeps the session, any
// other error is treated as a broken transport and closes it. That
// includes a flight that missed the NETCONF client's per-RPC deadline on
// a hung agent, so a borrow holds its session for at most the dial and
// the bounded flights f sends.
func (p *Pool) Do(f func(*Client) error) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("vnfagent: pool for %s is closed", p.addr)
	}
	var c *Client
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()

	if c == nil {
		var err error
		if c, err = DialClient(p.addr); err != nil {
			return err
		}
	}
	err := f(c)
	if err != nil && !IsRPCError(err) {
		c.Close()
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return err
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
	return err
}

// IsRPCError reports whether err is (or wraps) a NETCONF <rpc-error>:
// the session survived and carried a well-formed reply. Callers use it
// to tell an application-level refusal from a healthy agent apart from a
// broken transport, a missed deadline or a failed dial (unreachable or
// hung agent).
func IsRPCError(err error) bool {
	var re *netconf.RPCError
	return errors.As(err, &re)
}

// Close closes every idle session and marks the pool closed; a
// borrowed session is closed as it is returned.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
