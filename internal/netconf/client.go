package netconf

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"escape/internal/yang"
)

// Client is a NETCONF client session: the orchestrator's side of VNF
// management.
type Client struct {
	conn      net.Conn
	fr        *framer
	mu        sync.Mutex
	messageID int
	// rpc is the <rpc> envelope every operation is rendered in, reused
	// from rpc to rpc by the flight's writer, which holds mu.
	rpc *yang.Data
	// SessionID assigned by the server in its hello.
	SessionID string
	// ServerCapabilities from the hello exchange.
	ServerCapabilities []string
}

// rpcBound is how long one RPC may take on the management plane, the
// one deadline every call passes through: Calls gives a flight of n RPCs
// n times it from the moment it is sent, and Dial gives TCP connect and
// the hello exchange it once. An emulated agent answers an RPC in tens of
// microseconds and starts a VNF in about 0.3 ms; the slowest RPC of the
// whole test suite under -race at GOMAXPROCS 8 on 2 vCPUs took 142 ms.
// The bound is 14 times that, so only a hung agent or a dead path
// reaches it. RFC 6241 leaves rpc timeouts to the client.
const rpcBound = 2 * time.Second

// Dial connects, exchanges hellos and negotiates framing, all within
// rpcBound: an address nothing accepts on, or a peer that accepts and
// never says hello, fails the dial then.
func Dial(addr string) (*Client, error) {
	deadline := time.Now().Add(rpcBound)
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netconf: dial %s: %w", addr, err)
	}
	// Fails only on a closed connection, whose hello write fails next.
	_ = conn.SetDeadline(deadline)
	c := &Client{conn: conn, fr: newFramer(conn), rpc: yang.NewData("rpc").SetAttr("xmlns", baseNS)}
	// Client hello.
	hello := yang.NewData("hello").SetAttr("xmlns", baseNS).Add(
		yang.NewData("capabilities").
			AddLeaf("capability", capBase10).
			AddLeaf("capability", capBase11),
	)
	if err := c.fr.writeData(hello, true); err != nil {
		conn.Close()
		return nil, err
	}
	raw, err := c.fr.readMessage()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("netconf: reading server hello: %w", err)
	}
	srv, err := yang.ParseXML(string(raw))
	if err != nil || srv.Name != "hello" {
		conn.Close()
		return nil, fmt.Errorf("netconf: bad server hello")
	}
	c.SessionID = srv.ChildText("session-id")
	if caps := srv.Child("capabilities"); caps != nil {
		for _, cap := range caps.ChildrenNamed("capability") {
			c.ServerCapabilities = append(c.ServerCapabilities, cap.Text)
		}
	}
	if peerAdvertises(srv, capBase11) {
		c.fr.upgrade()
	}
	return c, nil
}

// Call sends one RPC operation and returns the rpc-reply element.
// rpc-error replies surface as Go errors.
func (c *Client) Call(op *yang.Data) (*yang.Data, error) {
	replies, err := c.Calls(op)
	if err != nil {
		return nil, err
	}
	return replies[0], nil
}

// Calls sends ops as one pipelined flight (RFC 6241 §4.5): every <rpc>
// is framed into the session's write buffer, which is flushed once at
// the end (a flight larger than the buffer also leaves as it fills),
// and the server runs and answers them in order. A refused op does not
// stop the ops behind it: each runs after the one before it has been
// answered, whatever that answer was, so a flight may carry an op that
// depends on an earlier one's effect only where the caller undoes it
// after a refusal (realization puts startVNF behind connectVNF). The
// replies are read in request order, each checked against its
// request's message-id, and returned one per op — all of them unless
// the transport failed, then the ones read before the failure. Each
// op's outcome stays in its reply (ReplyError).
//
// The flight is bounded where it is sent: its last reply must arrive
// within len(ops) × rpcBound of the call, or the session's deadline
// fails the pending write or read. A missed deadline is a transport
// failure like any other, so one hung agent costs its caller one bound,
// never a wedged goroutine.
//
// The error is non-nil whenever the transport failed or any reply is an
// <rpc-error>; in the second case it is the first reply's *RPCError, so
// callers such as vnfagent.Pool still tell a refused operation (session
// healthy) from a broken session. A transport failure closes the
// connection, since the session's framing is lost with it, and every
// later call on the session fails at once.
func (c *Client) Calls(ops ...*yang.Data) ([]*yang.Data, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Fails only on a closed connection, whose write fails next.
	_ = c.conn.SetDeadline(time.Now().Add(rpcBound * time.Duration(len(ops))))
	first := c.messageID + 1
	c.messageID += len(ops)
	write := func() error {
		defer func() { clear(c.rpc.Children) }() // keep no operation alive
		for i, op := range ops {
			c.rpc.SetAttr("message-id", strconv.Itoa(first+i))
			c.rpc.Children = append(c.rpc.Children[:0], op)
			if err := c.fr.writeData(c.rpc, false); err != nil {
				return err
			}
		}
		return c.fr.w.Flush()
	}
	// The server writes replies while the flight is still arriving, so a
	// flight of more than one rpc is written beside the reads: were both
	// sides blocked writing into full socket buffers, neither would read.
	// A write failure closes the connection to fail the reads with it.
	var wrote chan error
	if len(ops) > 1 {
		wrote = make(chan error, 1)
		go func() {
			err := write()
			if err != nil {
				c.conn.Close()
			}
			wrote <- err
		}()
	} else if err := write(); err != nil {
		c.conn.Close()
		return nil, fmt.Errorf("netconf: sending rpc: %w", err)
	}
	// A failed read closes the connection, which also unblocks a writer
	// the peer has stopped reading.
	replies, err := c.fr.readReplies(first, len(ops))
	if err != nil {
		c.conn.Close()
	}
	if wrote != nil {
		// The wait is bounded: the reads saw every reply, or failed and
		// closed the connection under the writer.
		//lint:ignore sendunderlock the flight's own writer, bounded as above; c.mu must cover it so flights never interleave
		if werr := <-wrote; werr != nil && err == nil {
			err = fmt.Errorf("netconf: sending rpc: %w", werr)
		}
	}
	if err != nil {
		return replies, err
	}
	for _, reply := range replies {
		if err := ReplyError(reply); err != nil {
			return replies, err
		}
	}
	return replies, nil
}

// readReplies reads the replies to n rpcs numbered from first on, up to
// the first transport failure: a broken connection, an unparsable reply
// or one answering another request.
func (f *framer) readReplies(first, n int) ([]*yang.Data, error) {
	replies := make([]*yang.Data, 0, n)
	for i := range n {
		reply, err := f.readReply(strconv.Itoa(first + i))
		if err != nil {
			return replies, err
		}
		replies = append(replies, reply)
	}
	return replies, nil
}

// readReply reads the rpc-reply to the rpc with message-id id.
func (f *framer) readReply(id string) (*yang.Data, error) {
	raw, err := f.readMessage()
	if err != nil {
		return nil, fmt.Errorf("netconf: reading reply: %w", err)
	}
	reply, err := yang.ParseXML(string(raw))
	if err != nil {
		return nil, fmt.Errorf("netconf: parsing reply: %w", err)
	}
	if reply.Name != "rpc-reply" {
		return nil, fmt.Errorf("netconf: expected rpc-reply, got <%s>", reply.Name)
	}
	if got := reply.Attr("message-id"); got != id {
		return nil, fmt.Errorf("netconf: reply carries message-id %q, want %q", got, id)
	}
	return reply, nil
}

// ReplyError returns the *RPCError an rpc-reply carries, or nil when
// the operation succeeded.
func ReplyError(reply *yang.Data) error {
	e := reply.Child("rpc-error")
	if e == nil {
		return nil
	}
	return &RPCError{
		Type:     e.ChildText("error-type"),
		Tag:      e.ChildText("error-tag"),
		Severity: e.ChildText("error-severity"),
		Message:  e.ChildText("error-message"),
	}
}

// RPCError is a structured <rpc-error> reply.
type RPCError struct {
	Type, Tag, Severity, Message string
}

// Error implements error.
func (e *RPCError) Error() string {
	return fmt.Sprintf("netconf: rpc-error (%s/%s): %s", e.Type, e.Tag, e.Message)
}

// Error tags carried in <error-tag> (RFC 6241 subset).
const (
	// tagOperationFailed is the generic handler-error tag.
	tagOperationFailed = "operation-failed"
	// tagResourceUnavailable marks errors whose handler wrapped
	// ErrUnavailable: the managed backend itself is gone (crashed
	// container), not just this operation. Clients classify on it.
	tagResourceUnavailable = "resource-unavailable"
)

// ErrUnavailable is wrapped by server-side handlers to signal that the
// managed backend is gone; the server maps it to tagResourceUnavailable
// so the condition survives the RPC boundary structurally instead of as
// message text.
var ErrUnavailable = errors.New("netconf: managed resource unavailable")

// IsUnavailable reports whether err is an rpc-error carrying
// tagResourceUnavailable (remote side) or wraps ErrUnavailable (local).
func IsUnavailable(err error) bool {
	var re *RPCError
	if errors.As(err, &re) {
		return re.Tag == tagResourceUnavailable
	}
	return errors.Is(err, ErrUnavailable)
}

// Get retrieves state and config (<get>).
func (c *Client) Get() (*yang.Data, error) {
	reply, err := c.Call(yang.NewData("get"))
	if err != nil {
		return nil, err
	}
	data := reply.Child("data")
	if data == nil {
		return nil, fmt.Errorf("netconf: get reply without <data>")
	}
	return data, nil
}

// Close sends close-session, waiting at most rpcBound for its reply, and
// closes the connection.
func (c *Client) Close() error {
	_, callErr := c.Call(yang.NewData("close-session"))
	closeErr := c.conn.Close()
	if callErr != nil {
		return callErr
	}
	return closeErr
}
