package vnfagent

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolSerializesAtSizeOne(t *testing.T) {
	_, agent, _ := newAgentClient(t)
	p := NewPool(agent.Addr())
	defer p.Close()
	var inFlight, maxInFlight atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(func(c *Client) error {
				if n := inFlight.Add(1); n > maxInFlight.Load() {
					maxInFlight.Store(n)
				}
				defer inFlight.Add(-1)
				_, err := c.GetVNFInfo()
				return err
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := maxInFlight.Load(); got != 1 {
		t.Errorf("max concurrent borrows = %d, want 1", got)
	}
}

func TestPoolKeepsSessionAcrossRPCError(t *testing.T) {
	_, agent, _ := newAgentClient(t)
	p := NewPool(agent.Addr())
	defer p.Close()
	// An rpc-error (unknown VNF) must not poison the pooled session.
	var first *Client
	err := p.Do(func(c *Client) error {
		first = c
		return c.StopVNF("ghost")
	})
	if err == nil {
		t.Fatal("stopVNF of unknown id succeeded")
	}
	if !isRPCError(err) {
		t.Fatalf("expected rpc-error, got %v", err)
	}
	if err := p.Do(func(c *Client) error {
		if c != first {
			t.Error("the pool dialed a new session after an rpc-error")
		}
		_, err := c.GetVNFInfo()
		return err
	}); err != nil {
		t.Errorf("session unusable after rpc-error: %v", err)
	}
}

func TestPoolDialErrorAndClose(t *testing.T) {
	p := NewPool("127.0.0.1:1") // nothing listens here
	if err := p.Do(func(c *Client) error { return nil }); err == nil {
		t.Error("Do against dead address succeeded")
	}
	p.Close()
	if err := p.Do(func(c *Client) error { return nil }); err == nil {
		t.Error("Do on closed pool succeeded")
	}
}

func TestPoolWrappedRPCErrorStaysPooled(t *testing.T) {
	_, agent, _ := newAgentClient(t)
	p := NewPool(agent.Addr())
	defer p.Close()
	err := p.Do(func(c *Client) error {
		if err := c.StopVNF("ghost"); err != nil {
			return fmt.Errorf("wrapped: %w", err)
		}
		return nil
	})
	if !isRPCError(err) {
		t.Fatalf("wrapped rpc-error not recognized: %v", err)
	}
}
