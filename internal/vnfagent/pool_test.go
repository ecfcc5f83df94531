package vnfagent

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPoolSessionPerBorrower: concurrent borrowers each hold a session
// of their own, the pool dials no more sessions than were borrowed at
// once, serial borrows reuse one session, and a session whose borrow
// failed at the transport is not handed out again.
func TestPoolSessionPerBorrower(t *testing.T) {
	_, agent, _ := newAgentClient(t)
	p := NewPool(agent.Addr())
	defer p.Close()
	const borrowers = 6
	var (
		mu      sync.Mutex
		inUse   = map[*Client]bool{}
		dialed  = map[string]bool{}
		holding int
		peak    int
		all     = make(chan struct{}) // closed once every borrower holds a session
		wg      sync.WaitGroup
	)
	for range borrowers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(func(c *Client) error {
				mu.Lock()
				if inUse[c] {
					t.Errorf("session %s lent to two borrowers at once", c.SessionID)
				}
				inUse[c], dialed[c.SessionID] = true, true
				holding++
				peak = max(peak, holding)
				if holding == borrowers {
					close(all)
				}
				mu.Unlock()
				select {
				case <-all:
				case <-time.After(5 * time.Second):
					t.Error("borrowers never held sessions at once: the pool serializes them")
				}
				_, err := c.GetVNFInfo()
				mu.Lock()
				inUse[c] = false
				holding--
				mu.Unlock()
				return err
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(dialed) > peak || peak != borrowers {
		t.Errorf("%d sessions dialed for a peak of %d concurrent borrowers (%d started)", len(dialed), peak, borrowers)
	}

	session := func(fail error) string {
		var id string
		err := p.Do(func(c *Client) error { id = c.SessionID; return fail })
		if err != fail {
			t.Fatalf("borrow error = %v, want %v", err, fail)
		}
		return id
	}
	first := session(nil)
	for range 3 {
		if id := session(nil); id != first {
			t.Fatalf("serial borrows got sessions %s and %s, want one reused", first, id)
		}
	}
	// Returned, it would be the next one lent.
	bad := session(errors.New("transport broke"))
	if id := session(nil); id == bad {
		t.Errorf("session %s was lent again after its transport broke", bad)
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
	if !IsRPCError(err) {
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
	if !IsRPCError(err) {
		t.Fatalf("wrapped rpc-error not recognized: %v", err)
	}
}

// misnumberingAgent speaks NETCONF 1.0 (end-of-message framing) and
// answers every rpc with an <ok/> carrying message-id 0. Each accepted
// connection gets the next session id.
func misnumberingAgent(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	const eom = "]]>]]>"
	readMessage := func(r *bufio.Reader) error {
		var msg strings.Builder
		for !strings.HasSuffix(msg.String(), eom) {
			s, err := r.ReadString('>')
			if err != nil {
				return err
			}
			msg.WriteString(s)
		}
		return nil
	}
	go func() {
		for session := 1; ; session++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				fmt.Fprintf(conn, `<hello xmlns="%s"><capabilities><capability>%s</capability></capabilities><session-id>%d</session-id></hello>%s`,
					"urn:ietf:params:xml:ns:netconf:base:1.0", "urn:ietf:params:netconf:base:1.0", session, eom)
				r := bufio.NewReader(conn)
				for readMessage(r) == nil {
					fmt.Fprintf(conn, `<rpc-reply xmlns="%s" message-id="0"><ok/></rpc-reply>%s`, "urn:ietf:params:xml:ns:netconf:base:1.0", eom)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPoolDiscardsMisnumberedSession: a reply answering another request
// means the session's replies no longer line up with its requests, so
// the borrow fails as a broken transport and the next one redials.
func TestPoolDiscardsMisnumberedSession(t *testing.T) {
	p := NewPool(misnumberingAgent(t))
	defer p.Close()
	var first string
	err := p.Do(func(c *Client) error {
		first = c.SessionID
		return c.StopVNF("v1")
	})
	if err == nil || IsRPCError(err) {
		t.Fatalf("borrow error = %v, want a transport error", err)
	}
	if err := p.Do(func(c *Client) error {
		if c.SessionID == first {
			t.Errorf("the pool kept session %s after a misnumbered reply", first)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
