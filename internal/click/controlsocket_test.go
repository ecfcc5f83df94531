package click

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
)

func newCSRouter(t *testing.T) (*Router, *ControlSocket) {
	t.Helper()
	r := mustRouter(t, `
		FromDevice(in) -> c :: Counter -> q :: Queue(16);
		q -> ru :: RatedUnqueue(RATE 100) -> ToDevice(out);
	`)
	cs, err := NewControlSocket(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	return r, cs
}

func TestControlSocketReadWrite(t *testing.T) {
	r, cs := newCSRouter(t)
	cl, err := DialControl(cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	v, err := cl.Read("c.count")
	if err != nil {
		t.Fatal(err)
	}
	if v != "0" {
		t.Errorf("count = %q", v)
	}
	pushN(t, r, "c", 3)
	if v, _ = cl.Read("c.count"); v != "3" {
		t.Errorf("count = %q", v)
	}
	if err := cl.Write("ru.rate", "500"); err != nil {
		t.Fatal(err)
	}
	if v, _ = cl.Read("ru.rate"); v != "500" {
		t.Errorf("rate = %q", v)
	}
}

func TestControlSocketErrors(t *testing.T) {
	_, cs := newCSRouter(t)
	cl, err := DialControl(cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Read("nosuch.count"); err == nil {
		t.Error("read of missing element succeeded")
	}
	if err := cl.Write("c.count", "1"); err == nil {
		t.Error("write to read-only handler succeeded")
	}
	// The session must still work after errors.
	if _, err := cl.Read("c.count"); err != nil {
		t.Errorf("session broken after error: %v", err)
	}
}

func TestControlSocketRawProtocol(t *testing.T) {
	_, cs := newCSRouter(t)
	conn, err := net.Dial("tcp", cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	banner, _ := br.ReadString('\n')
	if !strings.HasPrefix(banner, "Click::ControlSocket/1.3") {
		t.Fatalf("banner = %q", banner)
	}
	fmt.Fprintf(conn, "READ c.count\r\n")
	status, _ := br.ReadString('\n')
	if !strings.HasPrefix(status, "200") {
		t.Fatalf("status = %q", status)
	}
	dataLine, _ := br.ReadString('\n')
	if !strings.HasPrefix(dataLine, "DATA 1") {
		t.Fatalf("data line = %q", dataLine)
	}
	buf := make([]byte, 1)
	if _, err := br.Read(buf); err != nil || buf[0] != '0' {
		t.Fatalf("payload = %q err=%v", buf, err)
	}
	// CHECKREAD / CHECKWRITE
	fmt.Fprintf(conn, "CHECKREAD c.count\r\n")
	if l, _ := br.ReadString('\n'); !strings.HasPrefix(l, "200") {
		t.Errorf("CHECKREAD = %q", l)
	}
	fmt.Fprintf(conn, "CHECKWRITE c.count\r\n")
	if l, _ := br.ReadString('\n'); !strings.HasPrefix(l, "511") {
		t.Errorf("CHECKWRITE = %q", l)
	}
	// Unknown command
	fmt.Fprintf(conn, "BOGUS x\r\n")
	if l, _ := br.ReadString('\n'); !strings.HasPrefix(l, "501") {
		t.Errorf("BOGUS = %q", l)
	}
	// QUIT
	fmt.Fprintf(conn, "QUIT\r\n")
	if l, _ := br.ReadString('\n'); !strings.HasPrefix(l, "200") {
		t.Errorf("QUIT = %q", l)
	}
}

func TestControlSocketMultipleClients(t *testing.T) {
	r, cs := newCSRouter(t)
	pushN(t, r, "c", 5)
	for i := 0; i < 4; i++ {
		cl, err := DialControl(cs.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if v, err := cl.Read("c.count"); err != nil || v != "5" {
			t.Errorf("client %d: count=%q err=%v", i, v, err)
		}
		cl.Close()
	}
}

func TestControlSocketCloseUnblocksClients(t *testing.T) {
	_, cs := newCSRouter(t)
	cl, err := DialControl(cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cs.Close()
	if _, err := cl.Read("c.count"); err == nil {
		t.Error("read succeeded after server close")
	}
}

// TestControlSocketQueueCapacityBound: a capacity no machine could allocate,
// written over the TCP port, is refused; the router keeps running with the
// queue it had.
func TestControlSocketQueueCapacityBound(t *testing.T) {
	in, out := NewChanDevice("in", 8), NewChanDevice("out", 8)
	r := startRouter(t, `FromDevice(in) -> q :: Queue(16) -> ToDevice(out);`, in, out)
	cs, err := NewControlSocket(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	cl, err := DialControl(cs.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, v := range []string{"99999999999", fmt.Sprint(maxQueueCapacity + 1), "0", "-1"} {
		if err := cl.Write("q.capacity", v); err == nil {
			t.Errorf("WRITE q.capacity %s succeeded", v)
		}
	}
	if v, err := cl.Read("q.capacity"); err != nil || v != "16" {
		t.Errorf("q.capacity = %q, %v after refused writes, want 16", v, err)
	}
	if err := cl.Write("q.capacity", "32"); err != nil {
		t.Errorf("WRITE q.capacity 32: %v", err)
	}
	in.In <- make([]byte, 60)
	recvFrame(t, out.Out, "a frame through the queue after the refused writes")
}
