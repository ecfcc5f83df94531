package netconf

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"escape/internal/yang"
)

// echoServer answers "echo" with the value it was sent, refusing the
// value "refuse" with an rpc-error.
func echoServer() *Server {
	srv := NewServer()
	srv.Handle("echo", func(_ *Session, in *yang.Data) (*yang.Data, error) {
		v := in.ChildText("value")
		if v == "refuse" {
			return nil, errors.New("refused on request")
		}
		return yang.NewData("output").AddLeaf("value", v), nil
	})
	return srv
}

func echoOp(v string) *yang.Data { return yang.NewData("echo").AddLeaf("value", v) }

func TestCallsRepliesInOrder(t *testing.T) {
	c := newServerClient(t, echoServer())
	values := []string{"a", "b", "refuse", "d", "e"}
	ops := make([]*yang.Data, len(values))
	for i, v := range values {
		ops[i] = echoOp(v)
	}
	replies, err := c.Calls(ops...)
	var re *RPCError
	if !errors.As(err, &re) || !strings.Contains(re.Message, "refused on request") {
		t.Fatalf("flight error = %v, want the refusal's *RPCError", err)
	}
	if len(replies) != len(values) {
		t.Fatalf("%d replies to %d rpcs", len(replies), len(values))
	}
	for i, v := range values {
		rerr := ReplyError(replies[i])
		if v == "refuse" {
			if rerr == nil {
				t.Errorf("reply %d: the refusal carries no rpc-error", i)
			}
			continue
		}
		if rerr != nil {
			t.Errorf("reply %d: a neighbour's refusal leaked into it: %v", i, rerr)
		}
		if got := replies[i].Child("output").ChildText("value"); got != v {
			t.Errorf("reply %d echoes %q, want %q", i, got, v)
		}
	}
	// An rpc-error leaves the session usable.
	if reply, err := c.Call(echoOp("after")); err != nil || reply.Child("output").ChildText("value") != "after" {
		t.Fatalf("call after a refused flight: %v", err)
	}
}

// misnumberingServer speaks NETCONF 1.0 on one connection and answers
// every rpc with a reply carrying message-id 0.
func misnumberingServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := newFramer(conn)
		hello := yang.NewData("hello").SetAttr("xmlns", baseNS).Add(
			yang.NewData("capabilities").AddLeaf("capability", capBase10),
			yang.Leaf("session-id", "1"))
		if fr.writeMessage([]byte(hello.String())) != nil {
			return
		}
		for {
			if _, err := fr.readMessage(); err != nil {
				return
			}
			reply := yang.NewData("rpc-reply").SetAttr("xmlns", baseNS).
				SetAttr("message-id", "0").Add(yang.NewData("ok"))
			if fr.writeMessage([]byte(reply.String())) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

func TestCallsRejectsMisnumberedReply(t *testing.T) {
	c, err := Dial(misnumberingServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	_, err = c.Calls(echoOp("a"), echoOp("b"))
	if err == nil || !strings.Contains(err.Error(), "message-id") {
		t.Fatalf("flight error = %v, want a message-id mismatch", err)
	}
	if errors.As(err, new(*RPCError)) {
		t.Fatalf("a misnumbered reply surfaced as an rpc-error, not a transport error: %v", err)
	}
}

// TestCallsLargeFlight: a flight far larger than both ends' socket
// buffers completes, so the client reads replies while it is still
// writing. The buffers are pinned at 64 KiB (the flight is ~2 MB each
// way), since loopback autotuning could otherwise absorb it whole.
func TestCallsLargeFlight(t *testing.T) {
	const n = 20_000
	small := func(conn net.Conn) {
		tc := conn.(*net.TCPConn)
		if tc.SetReadBuffer(65536) != nil || tc.SetWriteBuffer(65536) != nil {
			t.Error("cannot shrink the socket buffers")
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := echoServer()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		small(conn)
		srv.serveConn(conn)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	small(c.conn)
	ops := make([]*yang.Data, n)
	for i := range ops {
		ops[i] = echoOp(fmt.Sprint(i))
	}
	type result struct {
		replies []*yang.Data
		err     error
	}
	done := make(chan result, 1)
	go func() {
		replies, err := c.Calls(ops...)
		done <- result{replies, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.replies) != n {
			t.Fatalf("%d replies to %d rpcs", len(r.replies), n)
		}
		if got := r.replies[n-1].Child("output").ChildText("value"); got != fmt.Sprint(n-1) {
			t.Fatalf("last reply echoes %q", got)
		}
	case <-time.After(10 * time.Second):
		c.conn.Close()
		t.Fatalf("a %d-rpc flight did not complete within 10 s: write/read deadlock", n)
	}
}

func TestCallsConnectionClosedMidFlight(t *testing.T) {
	srv := NewServer()
	var calls atomic.Int32
	srv.Handle("echo", func(sess *Session, in *yang.Data) (*yang.Data, error) {
		if calls.Add(1) == 3 {
			sess.conn.Close()
		}
		return nil, nil
	})
	c := newServerClient(t, srv)
	replies, err := c.Calls(echoOp("1"), echoOp("2"), echoOp("3"), echoOp("4"))
	if err == nil || errors.As(err, new(*RPCError)) {
		t.Fatalf("flight error = %v, want a transport error", err)
	}
	if len(replies) != 2 {
		t.Errorf("%d replies before the connection closed, want 2", len(replies))
	}
	if _, err := c.Call(echoOp("5")); err == nil {
		t.Error("a call on the broken session succeeded")
	}
}

// writeCounter counts the writes made on a connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int32
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1) // before the bytes can reach the peer
	return c.Conn.Write(p)
}

// TestFlightRepliesInOneWrite: a flight that reaches the agent in one
// read is answered in one write, not one write per reply.
func TestFlightRepliesInOneWrite(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := echoServer()
	counted := make(chan *writeCounter, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		wc := &writeCounter{Conn: conn}
		counted <- wc
		srv.serveConn(wc)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	wc := <-counted
	// The hello is written before Dial returns.
	hello := wc.writes.Load()
	ops := make([]*yang.Data, 9)
	for i := range ops {
		ops[i] = echoOp(fmt.Sprint(i))
	}
	replies, err := c.Calls(ops...)
	if err != nil || len(replies) != len(ops) {
		t.Fatalf("flight: %d replies, %v", len(replies), err)
	}
	if n := wc.writes.Load() - hello; n != 1 {
		t.Errorf("the agent answered a %d-rpc flight in %d writes, want 1", len(ops), n)
	}
}

// TestLockstepCallsAnswered: a client that waits for each reply before
// it sends the next rpc gets every reply: the agent never holds a reply
// back while it waits for the next request.
func TestLockstepCallsAnswered(t *testing.T) {
	c := newServerClient(t, echoServer())
	for i := range 50 {
		start := time.Now()
		reply, err := c.Call(echoOp(fmt.Sprint(i)))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := reply.Child("output").ChildText("value"); got != fmt.Sprint(i) {
			t.Fatalf("call %d echoes %q", i, got)
		}
		if d := time.Since(start); d > rpcBound/2 {
			t.Fatalf("call %d took %v: its reply waited for the next request", i, d)
		}
	}
}

// TestServerCloseMidFlight: an agent killed while a flight's replies are
// still buffered fails the client's flight at once with a transport
// error, not at its deadline.
func TestServerCloseMidFlight(t *testing.T) {
	srv := NewServer()
	var (
		calls   atomic.Int32
		entered = make(chan struct{})
		release = make(chan struct{})
	)
	srv.Handle("echo", func(*Session, *yang.Data) (*yang.Data, error) {
		if calls.Add(1) == 3 {
			close(entered)
			<-release
		}
		return nil, nil
	})
	c := newServerClient(t, srv)
	ops := make([]*yang.Data, 9)
	for i := range ops {
		ops[i] = echoOp(fmt.Sprint(i))
	}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.Calls(ops...)
		done <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		srv.Close() // returns once the held handler is released
		close(closed)
	}()
	select {
	case err := <-done:
		if err == nil || errors.As(err, new(*RPCError)) {
			t.Errorf("flight error = %v, want a transport error", err)
		}
		if d := time.Since(start); d >= rpcBound {
			t.Errorf("the flight failed after %v, not before its %v bound", d, rpcBound)
		}
	case <-time.After(rpcBound + deadlineSlack):
		t.Errorf("the flight still blocked %v after the agent closed", time.Since(start))
	}
	close(release)
	<-closed
}
