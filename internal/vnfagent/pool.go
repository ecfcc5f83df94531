package vnfagent

import (
	"errors"
	"fmt"
	"sync"

	"escape/internal/netconf"
)

// Pool is the one NETCONF session the orchestrator keeps to one agent.
// Every management RPC against that EE serializes on it (the strict
// per-EE ordering the realization fan-out relies on), while deploys
// touching different EEs proceed in parallel on their own pools. The
// session is dialed lazily on first use and reused across borrows; a
// session whose call fails at the transport layer is discarded and the
// next borrow dials a fresh one.
type Pool struct {
	addr  string
	token chan struct{} // capacity 1: one borrower at a time

	mu     sync.Mutex
	idle   *Client // nil until dialed, while borrowed, or after a broken call
	closed bool
}

// NewPool creates the pool for the agent at addr.
func NewPool(addr string) *Pool {
	return &Pool{addr: addr, token: make(chan struct{}, 1)}
}

// Do borrows the session (dialing it when there is none), runs f with it
// and returns it to the pool. Concurrent callers block until the session
// is free. f's error is passed through: an application-level rpc-error
// keeps the session, any other error is treated as a broken transport
// and closes it. That includes a flight that missed the NETCONF client's
// per-RPC deadline on a hung agent, so a borrow holds the session for at
// most the dial and the bounded flights f sends, and the next borrow
// dials afresh.
func (p *Pool) Do(f func(*Client) error) error {
	p.token <- struct{}{}
	defer func() { <-p.token }()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("vnfagent: pool for %s is closed", p.addr)
	}
	c := p.idle
	p.idle = nil
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
	p.idle = c
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

// Close closes the idle session and marks the pool closed; a borrowed
// session is closed as it is returned.
func (p *Pool) Close() {
	p.mu.Lock()
	c := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}
