// Escaped is the durable multi-tenant control-plane daemon: an
// HTTP/JSON API through which tenants declare service-graph intents
// against an embedded ESCAPE environment. Intents are persisted to an
// append-only WAL with periodic snapshots before they are
// acknowledged, so a kill -9 at any instant loses nothing that was
// acked; on restart the daemon replays the log and the reconciliation
// controller re-admits every surviving intent into a fresh substrate.
//
// Quick start:
//
//	escaped -listen 127.0.0.1:8642 -data /var/lib/escaped -admin-token root
//	curl -H 'Authorization: Bearer root' -d '{"name":"acme","quota":{"cpu":4}}' \
//	     http://127.0.0.1:8642/v1/tenants
//	curl -H "Authorization: Bearer $TENANT_TOKEN" -d @intent.json \
//	     'http://127.0.0.1:8642/v1/intents?wait=30s'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"escape/internal/api"
	"escape/internal/catalog"
	"escape/internal/core"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8642", "HTTP listen address")
		dataDir    = flag.String("data", "escaped-data", "durable state directory (WAL + snapshots)")
		adminToken = flag.String("admin-token", "", "admin bearer token for tenant management (required)")
		queueSlots = flag.Int("queue", 64, "bounded admission queue slots (full = 429)")
		rate       = flag.Float64("rate", 50, "per-tenant request rate limit (req/s, 0 = off)")
		burst      = flag.Float64("burst", 100, "per-tenant rate-limit burst")
		workers    = flag.Int("reconcile-workers", 4, "concurrent reconcile actions")
		resync     = flag.Duration("resync", 2*time.Second, "period of the reconciler's orphan sweep")
		ees        = flag.Int("ees", 2, "embedded topology: number of VNF containers")
		eeCPU      = flag.Float64("ee-cpu", 8, "CPU capacity per EE")
		eeMem      = flag.Int("ee-mem", 4096, "memory capacity per EE (MB)")
		hosts      = flag.Int("hosts", 8, "host (SAP) pairs in the embedded topology")
	)
	flag.Parse()
	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if *adminToken == "" {
		log.Error("missing -admin-token")
		os.Exit(2)
	}

	env, err := core.StartEnvironment(daemonTopo(*ees, *eeCPU, *eeMem, *hosts))
	if err != nil {
		log.Error("starting environment", "err", err)
		os.Exit(1)
	}
	defer env.Close()

	gate := api.NewQuotaGate()
	env.View.SetCommitGate(gate)

	store, err := api.OpenStore(*dataDir)
	if err != nil {
		log.Error("opening store", "err", err)
		os.Exit(1)
	}
	defer store.Close()
	metrics := &api.Metrics{}
	if n, torn := store.Replayed(); n > 0 || torn {
		metrics.RecoveredRecords.Store(uint64(n))
		log.Info("recovered durable state", "wal_records", n, "torn_tail_dropped", torn,
			"intents", len(store.Intents("")), "tenants", len(store.Tenants()))
	}

	backend := &api.CoreBackend{Orch: env.Orch}
	rec := &api.Reconciler{
		Store:   store,
		Backend: backend,
		Metrics: metrics,
		Log:     log,
		Workers: *workers,
		Resync:  *resync,
	}
	// NewServer seeds the quota gate with the stored tenants; the
	// reconciler must not admit replayed intents before that.
	srv := api.NewServer(api.ServerConfig{
		Store:      store,
		Backend:    backend,
		Reconciler: rec,
		Gate:       gate,
		Metrics:    metrics,
		Catalog:    catalog.Default(),
		AdminToken: *adminToken,
		QueueSlots: *queueSlots,
		Rate:       *rate,
		Burst:      *burst,
		Log:        log,
	})
	rec.Start()
	defer rec.Stop()
	httpSrv := newHTTPServer(*listen, srv.Handler())

	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	log.Info("escaped listening", "addr", *listen, "data", *dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
		rec.Stop()
		if err := store.Snapshot(); err != nil {
			log.Warn("final snapshot failed", "err", err)
		}
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("http server", "err", err)
			os.Exit(1)
		}
	}
}

// Limits of the public listener. A peer has readHeaderTimeout to send
// its request line and headers, which may total maxHeaderBytes; a
// keep-alive connection idle for idleTimeout is closed. Request bodies
// are capped by the API handlers. There is no write timeout: a
// ?wait=30s POST legitimately holds its response that long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer builds the daemon's public HTTP server, so that a peer
// that stops mid-request cannot hold a connection and its goroutine
// forever.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// daemonTopo builds the embedded two-switch topology: EEs split across
// the switches, host pairs h{i}a/h{i}b as the tenants' SAPs.
func daemonTopo(ees int, cpu float64, mem, hostPairs int) core.TopoSpec {
	spec := core.TopoSpec{
		Switches: []string{"s1", "s2"},
		Hosts:    map[string]string{},
		EEs:      map[string]core.EESpec{},
		Trunks:   []core.TrunkSpec{{A: "s1", B: "s2"}},
	}
	for i := 0; i < ees; i++ {
		sw := "s1"
		if i%2 == 1 {
			sw = "s2"
		}
		spec.EEs[fmt.Sprintf("ee%d", i+1)] = core.EESpec{Switch: sw, CPU: cpu, Mem: mem}
	}
	for i := 0; i < hostPairs; i++ {
		spec.Hosts[fmt.Sprintf("h%da", i)] = "s1"
		spec.Hosts[fmt.Sprintf("h%db", i)] = "s2"
	}
	return spec
}
