// Escaped is the durable multi-tenant control-plane daemon: an
// HTTP/JSON API through which tenants declare service-graph intents
// against an embedded ESCAPE environment. Intents are persisted to an
// append-only WAL with periodic snapshots before they are
// acknowledged, so a kill -9 at any instant loses nothing that was
// acked; on restart the daemon replays the log and the reconciliation
// controller re-admits every surviving intent into a fresh substrate.
//
// The daemon heals: a failure detector probes every EE over NETCONF and
// hears link state over OpenFlow PORT_STATUS, masks what fails out of
// the resource view, and wakes the reconciler, which moves each Running
// intent off the masked EEs and links. An intent that cannot be healed
// is torn down, reports why in last_error, and is redeployed once
// capacity returns.
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
	"escape/internal/resilience"
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

	d, err := startDaemon(daemonTopo(*ees, *eeCPU, *eeMem, *hosts), daemonConfig{
		dataDir:    *dataDir,
		adminToken: *adminToken,
		queueSlots: *queueSlots,
		rate:       *rate,
		burst:      *burst,
		workers:    *workers,
		resync:     *resync,
		log:        log,
	})
	if err != nil {
		log.Error("starting", "err", err)
		os.Exit(1)
	}
	defer d.close()
	httpSrv := newHTTPServer(*listen, d.handler)

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
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("http server", "err", err)
			os.Exit(1)
		}
	}
}

// daemonConfig is what the flags set beside the topology.
type daemonConfig struct {
	dataDir, adminToken string
	queueSlots          int
	rate, burst         float64
	workers             int
	resync              time.Duration
	log                 *slog.Logger
}

// daemon is the running control plane: an embedded environment, the
// durable store, the failure detector, the reconciler and the API.
type daemon struct {
	env     *core.Environment
	store   *api.Store
	det     *resilience.Detector
	rec     *api.Reconciler
	handler http.Handler
}

// startDaemon wires the control plane over spec in dependency order —
// environment, store, detector, reconciler, server — and starts the
// detector and the reconciler.
func startDaemon(spec core.TopoSpec, cfg daemonConfig) (*daemon, error) {
	env, err := core.StartEnvironment(spec)
	if err != nil {
		return nil, fmt.Errorf("starting environment: %w", err)
	}
	gate := api.NewQuotaGate()
	env.View.SetCommitGate(gate)

	store, err := api.OpenStore(cfg.dataDir)
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("opening store: %w", err)
	}
	metrics := &api.Metrics{}
	if n, torn := store.Replayed(); n > 0 || torn {
		metrics.RecoveredRecords.Store(uint64(n))
		cfg.log.Info("recovered durable state", "wal_records", n, "torn_tail_dropped", torn,
			"intents", len(store.Intents("")), "tenants", len(store.Tenants()))
	}

	agents := map[string]string{}
	for name, a := range env.Agents {
		agents[name] = a.Addr()
	}
	det := resilience.NewDetector(resilience.DetectorConfig{View: env.View, Agents: agents})
	env.Ctrl.Register(det)
	det.Start()

	backend := &api.CoreBackend{Orch: env.Orch}
	rec := &api.Reconciler{
		Store:   store,
		Backend: backend,
		Metrics: metrics,
		Log:     cfg.log,
		Faults:  det.Changed(),
		Workers: cfg.workers,
		Resync:  cfg.resync,
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
		AdminToken: cfg.adminToken,
		QueueSlots: cfg.queueSlots,
		Rate:       cfg.rate,
		Burst:      cfg.burst,
		Log:        cfg.log,
	})
	rec.Start()
	return &daemon{env: env, store: store, det: det, rec: rec, handler: srv.Handler()}, nil
}

// close stops the reconciler (in-flight actions finish), then the
// detector — before the environment, whose agents dying at shutdown
// would otherwise read as EE crashes and start heals on a closing
// substrate — and writes a final snapshot before closing the store and
// the environment.
func (d *daemon) close() {
	d.rec.Stop()
	d.det.Stop()
	if err := d.store.Snapshot(); err != nil {
		d.rec.Log.Warn("final snapshot failed", "err", err)
	}
	d.store.Close()
	d.env.Close()
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
