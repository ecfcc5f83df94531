package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHalfWrittenRequestIsClosed: a peer that sends part of a request
// line and stops is disconnected once the header deadline passes, and
// it does not keep the server from answering another connection
// meanwhile.
func TestHalfWrittenRequestIsClosed(t *testing.T) {
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
		}
	}))
	// Shorten the header deadline to keep the test quick; a server
	// built without one (zero) keeps none.
	srv.ReadHeaderTimeout = min(srv.ReadHeaderTimeout, 300*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /heal"); err != nil {
		t.Fatal(err)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz beside a stalled peer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz beside a stalled peer: %d, want 200", resp.StatusCode)
	}

	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(slow) // whatever error response the server writes, then EOF
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("the server kept a half-written request's connection open past its header deadline")
	}
	if err != nil {
		t.Fatalf("half-written request: read %q, err %v; want the connection closed", got, err)
	}
	if srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Errorf("idle timeout %v, header cap %d: want both set", srv.IdleTimeout, srv.MaxHeaderBytes)
	}
}

// TestDaemonRunsFileTopology: -topo starts the daemon on a topology file
// in escape run's format, whose one EE then serves an intent, and a file
// with a key the format lacks is refused before anything starts.
func TestDaemonRunsFileTopology(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "line.json")
	if err := os.WriteFile(good, []byte(`{
  "switches": ["a", "b", "c"],
  "hosts": {"h1": "a", "h2": "c"},
  "ees": {"box": {"switch": "b", "cpu": 2, "mem": 1024}},
  "trunks": [{"a": "a", "b": "b"}, {"a": "b", "b": "c", "bandwidth": 1e9}]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := loadTopology(good)
	if err != nil {
		t.Fatal(err)
	}
	f := startHealFixture(t, spec)
	for nf, ee := range f.d.env.Orch.Service(webID).Placements() {
		if ee != "box" {
			t.Errorf("NF %s runs on %s, want box, the file's only EE", nf, ee)
		}
	}

	bad := filepath.Join(dir, "misspelt.json")
	if err := os.WriteFile(bad, []byte(`{"switches": ["s1"], "ees": {"ee1": {"switch": "s1", "cpus": 2}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTopology(bad); err == nil || !strings.Contains(err.Error(), `"cpus"`) {
		t.Errorf("topology with an unknown key: err = %v, want one naming \"cpus\"", err)
	}
}
