package api

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// Metrics is the daemon's observable state, exported in Prometheus
// text format at /metrics. All fields are lock-free counters/gauges so
// the hot request path never serializes on observability.
type Metrics struct {
	RequestsTotal   atomic.Uint64 // all HTTP requests
	RequestErrors   atomic.Uint64 // responses >= 500
	Rejected429     atomic.Uint64 // backpressure + rate-limit rejections
	AuthFailures    atomic.Uint64
	IntentsAdmitted atomic.Uint64 // new intents accepted
	IntentsIdemHit  atomic.Uint64 // duplicate POSTs answered idempotently
	QuotaRejections atomic.Uint64

	QueueDepth atomic.Int64 // requests currently inside the bounded queue

	ReconcileRuns    atomic.Uint64 // reconcile attempts (deploy/undeploy actions)
	ReconcileErrors  atomic.Uint64
	ReconcileLagNS   atomic.Int64  // last intent-update→converged latency
	ReconcileBacklog atomic.Int64  // intents currently out of convergence
	Heals            atomic.Uint64 // services that entered Healing
	HealFailures     atomic.Uint64 // heals that gave up (service Failed)

	RecoveredRecords atomic.Uint64 // WAL records replayed at boot
}

// observeLag records one convergence latency.
func (m *Metrics) observeLag(d time.Duration) { m.ReconcileLagNS.Store(int64(d)) }

// WriteTo renders the Prometheus exposition text.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	var n int64
	p := func(format string, args ...any) error {
		c, err := fmt.Fprintf(w, format, args...)
		n += int64(c)
		return err
	}
	type row struct {
		name, help string
		val        any
	}
	rows := []row{
		{"escaped_requests_total", "HTTP requests served", m.RequestsTotal.Load()},
		{"escaped_request_errors_total", "HTTP 5xx responses", m.RequestErrors.Load()},
		{"escaped_rejected_429_total", "requests rejected by backpressure or rate limiting", m.Rejected429.Load()},
		{"escaped_auth_failures_total", "requests with missing or invalid tokens", m.AuthFailures.Load()},
		{"escaped_intents_admitted_total", "new intents accepted", m.IntentsAdmitted.Load()},
		{"escaped_intents_idempotent_hits_total", "duplicate intent POSTs answered from the store", m.IntentsIdemHit.Load()},
		{"escaped_quota_rejections_total", "admissions rejected by tenant quota", m.QuotaRejections.Load()},
		{"escaped_queue_depth", "requests inside the bounded admission queue", m.QueueDepth.Load()},
		{"escaped_reconcile_runs_total", "reconcile actions attempted", m.ReconcileRuns.Load()},
		{"escaped_reconcile_errors_total", "reconcile actions that failed", m.ReconcileErrors.Load()},
		{"escaped_reconcile_lag_seconds", "latest intent-to-converged latency", float64(m.ReconcileLagNS.Load()) / 1e9},
		{"escaped_reconcile_backlog", "intents not yet converged", m.ReconcileBacklog.Load()},
		{"escaped_heals_total", "services that entered Healing after a substrate fault", m.Heals.Load()},
		{"escaped_heal_failures_total", "heals that gave up and left the service Failed", m.HealFailures.Load()},
		{"escaped_recovered_wal_records", "WAL records replayed at startup", m.RecoveredRecords.Load()},
	}
	for _, r := range rows {
		// The naming convention is the type: only a counter ends in _total.
		typ := "gauge"
		if strings.HasSuffix(r.name, "_total") {
			typ = "counter"
		}
		if err := p("# HELP %s %s\n# TYPE %s %s\n%s %v\n", r.name, r.help, r.name, typ, r.name, r.val); err != nil {
			return n, err
		}
	}
	return n, nil
}
