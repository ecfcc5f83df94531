package click

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
)

// ControlSocket implements Click's ControlSocket text protocol
// (ClickControl/1.3) so external tools — ESCAPE's monitoring layer, or a
// real Clicky pointed at the port — can read and write element handlers of
// a running VNF over TCP.
//
// Protocol summary (matching the Click userlevel implementation):
//
//	S: Click::ControlSocket/1.3
//	C: READ counter.count
//	S: 200 Read handler 'counter.count' OK
//	S: DATA 5
//	S: 12345
//	C: WRITE src.rate 500
//	S: 200 Write handler 'src.rate' OK
//	C: QUIT
type ControlSocket struct {
	router *Router
	ln     net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// ControlSocket response codes (subset of Click's).
const (
	csOK            = 200
	csSyntaxError   = 501
	csNoSuchHandler = 511
	csHandlerError  = 520
)

// NewControlSocket starts serving the router's handlers on addr
// ("127.0.0.1:0" picks a free port). Close the returned ControlSocket to
// stop. The listener is plain TCP: where the kernel allows it Go listens
// with MPTCP by default, which a loopback control port gains nothing from
// and which costs more to open, and a deploy opens one per monitored VNF.
func NewControlSocket(r *Router, addr string) (*ControlSocket, error) {
	var lc net.ListenConfig
	lc.SetMultipathTCP(false)
	ln, err := lc.Listen(context.Background(), "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("click: controlsocket listen: %w", err)
	}
	cs := &ControlSocket{router: r, ln: ln, conns: map[net.Conn]struct{}{}}
	go cs.acceptLoop()
	return cs, nil
}

// Addr returns the listening address.
func (cs *ControlSocket) Addr() net.Addr { return cs.ln.Addr() }

// Close stops the listener and all connections.
func (cs *ControlSocket) Close() error {
	cs.mu.Lock()
	cs.closed = true
	for c := range cs.conns {
		c.Close()
	}
	cs.mu.Unlock()
	return cs.ln.Close()
}

func (cs *ControlSocket) acceptLoop() {
	for {
		conn, err := cs.ln.Accept()
		if err != nil {
			return
		}
		cs.mu.Lock()
		if cs.closed {
			cs.mu.Unlock()
			conn.Close()
			return
		}
		cs.conns[conn] = struct{}{}
		cs.mu.Unlock()
		go cs.serve(conn)
	}
}

func (cs *ControlSocket) serve(conn net.Conn) {
	defer func() {
		cs.mu.Lock()
		delete(cs.conns, conn)
		cs.mu.Unlock()
		conn.Close()
	}()
	bw := bufio.NewWriter(conn)
	fmt.Fprintf(bw, "Click::ControlSocket/1.3\r\n")
	bw.Flush()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		cmd := strings.ToUpper(fields[0])
		rest := ""
		if len(fields) > 1 {
			rest = strings.TrimSpace(fields[1])
		}
		switch cmd {
		case "QUIT":
			fmt.Fprintf(bw, "200 Goodbye!\r\n")
			bw.Flush()
			return
		case "READ":
			cs.handleRead(bw, rest)
		case "WRITE":
			cs.handleWrite(bw, rest)
		case "CHECKREAD":
			cs.handleCheck(bw, rest, true)
		case "CHECKWRITE":
			cs.handleCheck(bw, rest, false)
		default:
			fmt.Fprintf(bw, "%d Unknown command %q\r\n", csSyntaxError, cmd)
		}
		bw.Flush()
	}
}

func (cs *ControlSocket) handleRead(w io.Writer, spec string) {
	if spec == "" {
		fmt.Fprintf(w, "%d READ requires a handler name\r\n", csSyntaxError)
		return
	}
	val, err := cs.router.ReadHandler(spec)
	if err != nil {
		fmt.Fprintf(w, "%d %s\r\n", csNoSuchHandler, err)
		return
	}
	fmt.Fprintf(w, "%d Read handler '%s' OK\r\n", csOK, spec)
	fmt.Fprintf(w, "DATA %d\r\n", len(val))
	io.WriteString(w, val)
}

func (cs *ControlSocket) handleWrite(w io.Writer, rest string) {
	if rest == "" {
		fmt.Fprintf(w, "%d WRITE requires a handler name\r\n", csSyntaxError)
		return
	}
	parts := strings.SplitN(rest, " ", 2)
	spec := parts[0]
	value := ""
	if len(parts) > 1 {
		value = parts[1]
	}
	if err := cs.router.writeHandler(spec, value); err != nil {
		fmt.Fprintf(w, "%d %s\r\n", csHandlerError, err)
		return
	}
	fmt.Fprintf(w, "%d Write handler '%s' OK\r\n", csOK, spec)
}

func (cs *ControlSocket) handleCheck(w io.Writer, spec string, read bool) {
	h, err := cs.router.findHandler(spec)
	verb := "read"
	if !read {
		verb = "write"
	}
	ok := err == nil && ((read && h.Read != nil) || (!read && h.Write != nil))
	if ok {
		fmt.Fprintf(w, "%d %s handler '%s' exists\r\n", csOK, verb, spec)
	} else {
		fmt.Fprintf(w, "%d no %s handler '%s'\r\n", csNoSuchHandler, verb, spec)
	}
}

// ControlClient is the client side of the ControlSocket protocol, used by
// ESCAPE's monitoring layer (internal/mgmt) to poll running VNFs.
type ControlClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	mu   sync.Mutex
}

// DialControl connects to a ControlSocket and consumes the banner.
func DialControl(addr string) (*ControlClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("click: dialing controlsocket: %w", err)
	}
	c := &ControlClient{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	banner, err := c.br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("click: reading controlsocket banner: %w", err)
	}
	if !strings.HasPrefix(banner, "Click::ControlSocket/") {
		conn.Close()
		return nil, fmt.Errorf("click: unexpected banner %q", strings.TrimSpace(banner))
	}
	return c, nil
}

// Close terminates the session politely.
func (c *ControlClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.bw, "QUIT\r\n")
	c.bw.Flush()
	return c.conn.Close()
}

// HandlerError is a protocol-level ControlSocket failure (unknown
// handler, bad write value, …): the session remains usable, unlike
// transport errors.
type HandlerError struct {
	Spec string
	Code int
	Msg  string
}

// Error implements error.
func (e *HandlerError) Error() string {
	return fmt.Sprintf("click: %s: %d %s", e.Spec, e.Code, e.Msg)
}

// Read reads a handler value ("counter.count").
func (c *ControlClient) Read(spec string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.bw, "READ %s\r\n", spec)
	if err := c.bw.Flush(); err != nil {
		return "", err
	}
	code, msg, err := c.readStatus()
	if err != nil {
		return "", err
	}
	if code != csOK {
		return "", &HandlerError{Spec: "read " + spec, Code: code, Msg: msg}
	}
	dataLine, err := c.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	dataLine = strings.TrimSpace(dataLine)
	if !strings.HasPrefix(dataLine, "DATA ") {
		return "", fmt.Errorf("click: expected DATA line, got %q", dataLine)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(dataLine, "DATA "))
	if err != nil || n < 0 {
		return "", fmt.Errorf("click: bad DATA length in %q", dataLine)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Write writes a handler value ("src.rate", "500").
func (c *ControlClient) Write(spec, value string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if value != "" {
		fmt.Fprintf(c.bw, "WRITE %s %s\r\n", spec, value)
	} else {
		fmt.Fprintf(c.bw, "WRITE %s\r\n", spec)
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	code, msg, err := c.readStatus()
	if err != nil {
		return err
	}
	if code != csOK {
		return &HandlerError{Spec: "write " + spec, Code: code, Msg: msg}
	}
	return nil
}

func (c *ControlClient) readStatus() (int, string, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return 0, "", err
	}
	line = strings.TrimSpace(line)
	if len(line) < 4 {
		return 0, "", fmt.Errorf("click: short status line %q", line)
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil {
		return 0, "", fmt.Errorf("click: bad status line %q", line)
	}
	return code, strings.TrimSpace(line[3:]), nil
}
