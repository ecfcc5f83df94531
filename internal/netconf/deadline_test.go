package netconf

import (
	"errors"
	"net"
	"testing"
	"time"

	"escape/internal/yang"
)

// deadlineSlack is how late past its deadline a bounded call may still
// return: scheduling on a loaded runner, never a second bound.
const deadlineSlack = time.Second

// isTimeout reports whether err is a missed network deadline.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestCallDeadlineOnSilentPeer: a peer that answers hello and never
// replies fails the call with a transport error once rpcBound has
// passed, and the session is closed: the next call fails at once.
func TestCallDeadlineOnSilentPeer(t *testing.T) {
	t.Parallel()
	hang := make(chan struct{})
	srv := NewServer()
	srv.Handle("hang", func(*Session, *yang.Data) (*yang.Data, error) {
		<-hang
		return nil, errors.New("released")
	})
	c := newServerClient(t, srv)
	t.Cleanup(func() { close(hang) }) // before srv.Close, which waits on the handler

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(yang.NewData("hang"))
		done <- err
	}()
	select {
	case err := <-done:
		elapsed := time.Since(start)
		if !isTimeout(err) {
			t.Fatalf("call to a silent peer returned %v, want a missed deadline", err)
		}
		if elapsed < rpcBound {
			t.Errorf("call gave up after %v, before its %v bound", elapsed, rpcBound)
		}
	case <-time.After(rpcBound + deadlineSlack):
		t.Fatalf("call to a silent peer still blocked after %v (bound %v)", time.Since(start), rpcBound)
	}

	start = time.Now()
	_, err := c.Call(yang.NewData("get"))
	if err == nil {
		t.Fatal("a call on the timed-out session succeeded")
	}
	var re *RPCError
	if errors.As(err, &re) {
		t.Fatalf("a call on the timed-out session returned an rpc-error %v, want a transport failure", err)
	}
	if elapsed := time.Since(start); elapsed > rpcBound/10 {
		t.Errorf("a call on the timed-out session took %v to fail, want at once", elapsed)
	}
}

// TestDialDeadlineOnMuteListener: a listener that accepts and never
// says hello fails the dial once rpcBound has passed.
func TestDialDeadlineOnMuteListener(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn // held open, never written to
		}
	}()
	defer func() {
		select {
		case conn := <-accepted:
			conn.Close()
		default:
		}
	}()

	start := time.Now()
	done := make(chan error, 1)
	go func() {
		c, err := Dial(ln.Addr().String())
		if err == nil {
			c.conn.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		elapsed := time.Since(start)
		if !isTimeout(err) {
			t.Fatalf("dial to a mute listener returned %v, want a missed deadline", err)
		}
		if elapsed < rpcBound {
			t.Errorf("dial gave up after %v, before its %v bound", elapsed, rpcBound)
		}
	case <-time.After(rpcBound + deadlineSlack):
		t.Fatalf("dial to a mute listener still blocked after %v (bound %v)", time.Since(start), rpcBound)
	}
}
