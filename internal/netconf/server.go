package netconf

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"escape/internal/yang"
)

// RPCHandler processes one custom RPC: input is the <rpc> child element
// (e.g. <startVNF>…), the return value becomes the <rpc-reply> content.
// Returning an error produces an <rpc-error> reply.
type RPCHandler func(sess *Session, input *yang.Data) (*yang.Data, error)

// Server is a NETCONF server: OpenYuma's role in the original ESCAPE.
type Server struct {
	mu        sync.RWMutex
	handlers  map[string]RPCHandler
	modules   []*yang.Module
	datastore *yang.Data // running config, edited via edit-config
	ln        net.Listener
	conns     map[net.Conn]struct{}
	sessionID atomic.Uint32
	closed    atomic.Bool
	wg        sync.WaitGroup

	// StateProvider, when set, is invoked on <get> to produce fresh
	// operational state (appended to the static datastore contents).
	StateProvider func() *yang.Data
}

// NewServer creates a server with an empty <config> datastore.
func NewServer(modules ...*yang.Module) *Server {
	return &Server{
		handlers:  map[string]RPCHandler{},
		modules:   modules,
		datastore: yang.NewData("config"),
	}
}

// Handle registers a custom RPC handler by element name ("startVNF").
// When a module models the RPC, the input is validated against it first.
func (s *Server) Handle(rpcName string, h RPCHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[rpcName] = h
}

// ListenAndServe starts accepting sessions on addr ("127.0.0.1:0").
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("netconf: listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return nil
}

// Addr returns the listening address, or nil.
func (s *Server) Addr() net.Addr {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener and force-closes every running session (a
// killed agent must not leave clients holding half-open sessions — they
// see EOF and discard the transport).
func (s *Server) Close() {
	s.closed.Store(true)
	s.mu.Lock()
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// track registers a live session connection for Close; it reports false
// when the server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// Session is one NETCONF session on the server side.
type Session struct {
	ID     uint32
	server *Server
	fr     *framer
	conn   net.Conn
	closed bool
	// reply is the <rpc-reply> envelope every reply is built in, reused
	// from rpc to rpc: a reply is rendered before the next rpc is read.
	reply *yang.Data
}

// serveConn runs the NETCONF session protocol on an established
// connection until close-session or connection loss.
func (s *Server) serveConn(conn net.Conn) error {
	defer conn.Close()
	if !s.track(conn) {
		return fmt.Errorf("netconf: server closed")
	}
	defer s.untrack(conn)
	sess := &Session{
		ID:     s.sessionID.Add(1),
		server: s,
		fr:     newFramer(conn),
		conn:   conn,
		reply:  yang.NewData("rpc-reply").SetAttr("xmlns", baseNS),
	}
	// Hello exchange: server sends capabilities + session-id.
	hello := yang.NewData("hello").SetAttr("xmlns", baseNS)
	caps := yang.NewData("capabilities").
		AddLeaf("capability", capBase10).
		AddLeaf("capability", capBase11)
	hello.Add(caps, yang.Leaf("session-id", fmt.Sprint(sess.ID)))
	if err := sess.fr.writeData(hello, true); err != nil {
		return err
	}
	peerRaw, err := sess.fr.readMessage()
	if err != nil {
		return fmt.Errorf("netconf: reading client hello: %w", err)
	}
	peer, err := yang.ParseXML(string(peerRaw))
	if err != nil || peer.Name != "hello" {
		return fmt.Errorf("netconf: bad client hello")
	}
	if peerAdvertises(peer, capBase11) {
		sess.fr.upgrade()
	}
	for !sess.closed {
		raw, err := sess.fr.readMessage()
		if err != nil {
			return nil // connection gone
		}
		if len(raw) == 0 {
			continue
		}
		rpc, err := yang.ParseXML(string(raw))
		if err != nil || rpc.Name != "rpc" {
			continue
		}
		reply := s.dispatch(sess, rpc)
		if err := sess.fr.writeData(reply, true); err != nil {
			return err
		}
	}
	return nil
}

func peerAdvertises(hello *yang.Data, cap string) bool {
	caps := hello.Child("capabilities")
	if caps == nil {
		return false
	}
	for _, c := range caps.ChildrenNamed("capability") {
		if strings.TrimSpace(c.Text) == cap {
			return true
		}
	}
	return false
}

// dispatch answers one rpc in the session's reply envelope, valid until
// the next dispatch.
func (s *Server) dispatch(sess *Session, rpc *yang.Data) *yang.Data {
	reply := sess.reply
	clear(reply.Children)
	reply.Children = reply.Children[:0]
	if id := rpc.Attr("message-id"); id != "" {
		reply.SetAttr("message-id", id)
	} else {
		delete(reply.Attrs, "message-id")
	}
	if len(rpc.Children) == 0 {
		return rpcError(reply, "protocol", "missing operation")
	}
	op := rpc.Children[0]
	switch op.Name {
	case "close-session":
		sess.closed = true
		return reply.Add(yang.NewData("ok"))
	case "get", "get-config":
		data := yang.NewData("data")
		s.mu.RLock()
		ds := s.datastore.Clone()
		s.mu.RUnlock()
		data.Children = append(data.Children, ds.Children...)
		if op.Name == "get" && s.StateProvider != nil {
			if st := s.StateProvider(); st != nil {
				data.Add(st)
			}
		}
		return reply.Add(data)
	case "edit-config":
		cfg := op.Child("config")
		if cfg == nil {
			return rpcError(reply, "protocol", "edit-config without <config>")
		}
		s.mu.Lock()
		yang.Merge(s.datastore, cfg)
		s.mu.Unlock()
		return reply.Add(yang.NewData("ok"))
	}
	// Custom RPC.
	s.mu.RLock()
	h := s.handlers[op.Name]
	mods := s.modules
	s.mu.RUnlock()
	if h == nil {
		return rpcError(reply, "application", fmt.Sprintf("unknown operation %q", op.Name))
	}
	for _, m := range mods {
		if m.RPC(op.Name) != nil {
			if err := m.ValidateRPCInput(op.Name, op); err != nil {
				return rpcError(reply, "application", err.Error())
			}
			break
		}
	}
	out, err := h(sess, op)
	if err != nil {
		// ErrUnavailable-wrapped handler errors get their own error-tag,
		// so clients can structurally tell "the managed backend is gone"
		// (crashed container — teardown may skip it) from an ordinary
		// operation failure, without matching on message text.
		tag := tagOperationFailed
		if errors.Is(err, ErrUnavailable) {
			tag = tagResourceUnavailable
		}
		return rpcErrorTag(reply, "application", tag, err.Error())
	}
	if out == nil {
		return reply.Add(yang.NewData("ok"))
	}
	return reply.Add(out)
}

func rpcError(reply *yang.Data, typ, msg string) *yang.Data {
	return rpcErrorTag(reply, typ, tagOperationFailed, msg)
}

func rpcErrorTag(reply *yang.Data, typ, tag, msg string) *yang.Data {
	return reply.Add(
		yang.NewData("rpc-error").
			AddLeaf("error-type", typ).
			AddLeaf("error-tag", tag).
			AddLeaf("error-severity", "error").
			AddLeaf("error-message", msg),
	)
}
