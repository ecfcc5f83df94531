package netconf

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"escape/internal/yang"
)

func newServerClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.conn.Close() })
	return c
}

func TestHelloExchange(t *testing.T) {
	srv := NewServer()
	c := newServerClient(t, srv)
	if c.SessionID == "" {
		t.Error("no session id")
	}
	found := false
	for _, cap := range c.ServerCapabilities {
		if cap == capBase11 {
			found = true
		}
	}
	if !found {
		t.Errorf("capabilities = %v", c.ServerCapabilities)
	}
	// base:1.1 on both sides → chunked framing in effect.
	if !c.fr.chunked {
		t.Error("client did not upgrade to chunked framing")
	}
}

// getConfig reads the running datastore with a <get-config> rpc.
func getConfig(c *Client) (*yang.Data, error) {
	reply, err := c.Call(yang.NewData("get-config").Add(
		yang.NewData("source").Add(yang.NewData("running")),
	))
	if err != nil {
		return nil, err
	}
	if data := reply.Child("data"); data != nil {
		return data, nil
	}
	return nil, fmt.Errorf("get-config reply without <data>: %s", reply.String())
}

// editConfig merges config into the running datastore with an
// <edit-config> rpc.
func editConfig(c *Client, config *yang.Data) error {
	config.Name = "config"
	_, err := c.Call(yang.NewData("edit-config").Add(
		yang.NewData("target").Add(yang.NewData("running")),
		config,
	))
	return err
}

func TestGetConfigAndEditConfig(t *testing.T) {
	srv := NewServer()
	c := newServerClient(t, srv)
	// Initially empty.
	data, err := getConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Children) != 0 {
		t.Errorf("initial config = %s", data.String())
	}
	// Edit, then read back.
	edit := yang.NewData("config").Add(
		yang.NewData("chains").Add(
			yang.NewData("chain").AddLeaf("id", "c1").AddLeaf("status", "deployed"),
		),
	)
	if err := editConfig(c, edit); err != nil {
		t.Fatal(err)
	}
	data, err = getConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	chain := data.Child("chains")
	if chain == nil || chain.Child("chain").ChildText("id") != "c1" {
		t.Fatalf("config after edit = %s", data.String())
	}
	// Merge semantics: update the same entry.
	edit2 := yang.NewData("config").Add(
		yang.NewData("chains").Add(
			yang.NewData("chain").AddLeaf("id", "c1").AddLeaf("status", "torn-down"),
		),
	)
	if err := editConfig(c, edit2); err != nil {
		t.Fatal(err)
	}
	data, _ = getConfig(c)
	entries := data.Child("chains").ChildrenNamed("chain")
	if len(entries) != 1 || entries[0].ChildText("status") != "torn-down" {
		t.Fatalf("after merge = %s", data.String())
	}
}

func TestGetIncludesOperationalState(t *testing.T) {
	srv := NewServer()
	srv.StateProvider = func() *yang.Data {
		return yang.NewData("vnfs").Add(
			yang.NewData("vnf").AddLeaf("id", "v1").AddLeaf("status", "RUNNING"),
		)
	}
	c := newServerClient(t, srv)
	data, err := c.Get()
	if err != nil {
		t.Fatal(err)
	}
	vnfs := data.Child("vnfs")
	if vnfs == nil || vnfs.Child("vnf").ChildText("status") != "RUNNING" {
		t.Fatalf("get = %s", data.String())
	}
}

func TestCustomRPCDispatchAndValidation(t *testing.T) {
	mod := &yang.Module{
		Name: "m", Namespace: "urn:m", Prefix: "m",
		RPCs: []*yang.Node{{
			Name: "startVNF",
			Input: []*yang.Node{
				{Name: "vnf_id", Kind: yang.KindLeaf, Type: yang.TypeString, Mandatory: true},
			},
		}},
	}
	srv := NewServer(mod)
	srv.Handle("startVNF", func(sess *Session, in *yang.Data) (*yang.Data, error) {
		id := in.ChildText("vnf_id")
		if id == "boom" {
			return nil, fmt.Errorf("exploded")
		}
		return yang.NewData("status").Add(yang.Leaf("state", "RUNNING")), nil
	})
	c := newServerClient(t, srv)

	// Valid call.
	reply, err := c.Call(yang.NewData("startVNF").AddLeaf("vnf_id", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Child("status").ChildText("state") != "RUNNING" {
		t.Errorf("reply = %s", reply.String())
	}
	// Handler error → RPCError.
	_, err = c.Call(yang.NewData("startVNF").AddLeaf("vnf_id", "boom"))
	rpcErr, ok := err.(*RPCError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if rpcErr.Message != "exploded" || rpcErr.Severity != "error" {
		t.Errorf("rpc error = %+v", rpcErr)
	}
	// Schema validation: mandatory leaf missing.
	_, err = c.Call(yang.NewData("startVNF"))
	if err == nil || !strings.Contains(err.Error(), "mandatory") {
		t.Errorf("validation err = %v", err)
	}
	// Unknown operation.
	_, err = c.Call(yang.NewData("frobnicate"))
	if err == nil || !strings.Contains(err.Error(), "unknown operation") {
		t.Errorf("unknown op err = %v", err)
	}
}

func TestCloseSession(t *testing.T) {
	srv := NewServer()
	c := newServerClient(t, srv)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Session is gone: further calls fail.
	if _, err := c.Call(yang.NewData("get")); err == nil {
		t.Error("call after close succeeded")
	}
}

func TestMultipleConcurrentSessions(t *testing.T) {
	srv := NewServer()
	srv.Handle("whoami", func(sess *Session, in *yang.Data) (*yang.Data, error) {
		return yang.Leaf("session", fmt.Sprint(sess.ID)), nil
	})
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids := map[string]bool{}
	for i := 0; i < 4; i++ {
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		reply, err := c.Call(yang.NewData("whoami"))
		if err != nil {
			t.Fatal(err)
		}
		id := reply.ChildText("session")
		if ids[id] {
			t.Errorf("duplicate session id %s", id)
		}
		ids[id] = true
		c.Close()
	}
}

func TestEOMFraming(t *testing.T) {
	var buf bytes.Buffer
	f := newFramer(struct {
		*bytes.Buffer
	}{&buf})
	msgs := [][]byte{[]byte("<a/>"), []byte("<b>body</b>"), []byte("<c>x]]>y</c>")}
	// The third message contains a partial delimiter — EOM framing handles
	// it because the full 6-byte sequence never appears inside.
	for _, m := range msgs {
		if err := f.writeMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := f.readMessage()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("read %q, want %q", got, want)
		}
	}
}

func TestChunkedFraming(t *testing.T) {
	var buf bytes.Buffer
	f := newFramer(struct {
		*bytes.Buffer
	}{&buf})
	f.upgrade()
	payload := bytes.Repeat([]byte("<x>chunky</x>"), 100)
	if err := f.writeMessage(payload); err != nil {
		t.Fatal(err)
	}
	got, err := f.readMessage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("chunked round trip mismatch")
	}
}

func TestChunkedFramingMultiChunk(t *testing.T) {
	// Hand-build a two-chunk message.
	raw := "\n#5\nhello\n#6\n world\n##\n"
	f := newFramer(struct {
		*bytes.Buffer
	}{bytes.NewBufferString(raw)})
	f.upgrade()
	got, err := f.readMessage()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Errorf("multi-chunk read = %q", got)
	}
}

func TestChunkedFramingErrors(t *testing.T) {
	for _, raw := range []string{
		"\n#abc\nxxx\n##\n", // non-numeric length
		"\n#0\n\n##\n",      // zero length
		"xyz",               // no frame start
	} {
		f := newFramer(struct {
			*bytes.Buffer
		}{bytes.NewBufferString(raw)})
		f.upgrade()
		if _, err := f.readMessage(); err == nil {
			t.Errorf("ReadMessage(%q) succeeded", raw)
		}
	}
}

// TestChunkedFramingBoundsMessage: every chunk may be under the cap while
// their sum is not; the reader refuses the chunk that would cross
// maxMessage before buffering it, and a multi-chunk message under the cap
// reads back unchanged.
func TestChunkedFramingBoundsMessage(t *testing.T) {
	read := func(raw []byte) ([]byte, error) {
		f := newFramer(struct {
			*bytes.Buffer
		}{bytes.NewBuffer(raw)})
		f.upgrade()
		return f.readMessage()
	}
	chunk := func(data []byte) []byte {
		return append([]byte(fmt.Sprintf("\n#%d\n", len(data))), data...)
	}

	nine := bytes.Repeat([]byte("x"), 9<<20)
	over := append(append(chunk(nine), chunk(nine)...), "\n##\n"...)
	if _, err := read(over); err == nil {
		t.Fatal("two 9 MB chunks (18 MB message) accepted")
	}

	var want, raw []byte
	for i := 0; i < 3; i++ {
		part := bytes.Repeat([]byte{'a' + byte(i)}, 5<<20)
		want = append(want, part...)
		raw = append(raw, chunk(part)...)
	}
	raw = append(raw, "\n##\n"...)
	got, err := read(raw)
	if err != nil {
		t.Fatalf("15 MB in three chunks: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("multi-chunk message under the cap changed in transit")
	}
}

// Property: both framings round-trip arbitrary XML-ish payloads that do
// not contain the EOM delimiter.
func TestQuickFramingRoundTrip(t *testing.T) {
	f := func(payload []byte, chunked bool) bool {
		if bytes.Contains(payload, eomDelimiter) || len(payload) == 0 {
			return true // EOM framing legitimately cannot carry these
		}
		var buf bytes.Buffer
		fr := newFramer(struct {
			*bytes.Buffer
		}{&buf})
		if chunked {
			fr.upgrade()
		}
		if err := fr.writeMessage(payload); err != nil {
			return false
		}
		got, err := fr.readMessage()
		if err != nil {
			return false
		}
		if chunked {
			return bytes.Equal(got, payload)
		}
		return bytes.Equal(got, bytes.TrimSpace(payload))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDialFailure(t *testing.T) {
	// A listener that accepts then immediately closes → hello fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Error("dial to broken server succeeded")
	}
}

// TestReplyEchoesEscapedMessageID: the server echoes a message-id that
// needs escaping into a reply that parses and carries it unchanged. The
// peer's rpc is written raw, since the id arrives escaped on the wire.
func TestReplyEchoesEscapedMessageID(t *testing.T) {
	srv := NewServer()
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFramer(conn)
	if _, err := fr.readMessage(); err != nil {
		t.Fatalf("reading the server's hello: %v", err)
	}
	hello := `<hello xmlns="` + baseNS + `"><capabilities><capability>` + capBase10 + `</capability></capabilities></hello>`
	if err := fr.writeMessage([]byte(hello)); err != nil {
		t.Fatal(err)
	}
	if err := fr.writeMessage([]byte(`<rpc message-id="a&amp;b&lt;c" xmlns="` + baseNS + `"><get/></rpc>`)); err != nil {
		t.Fatal(err)
	}
	raw, err := fr.readMessage()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := yang.ParseXML(string(raw))
	if err != nil {
		t.Fatalf("the reply %q does not parse: %v", raw, err)
	}
	if got := reply.Attr("message-id"); got != "a&b<c" {
		t.Errorf("the reply carries message-id %q, want %q", got, "a&b<c")
	}
}
