package api

import (
	"bytes"
	"strings"
	"testing"
)

// TestMetricsExposition parses what Metrics.WriteTo prints: every sample
// line follows its own HELP and TYPE lines, and every metric has the type
// a Prometheus server needs to rate() it or not.
func TestMetricsExposition(t *testing.T) {
	want := map[string]string{
		"escaped_requests_total":                "counter",
		"escaped_request_errors_total":          "counter",
		"escaped_rejected_429_total":            "counter",
		"escaped_auth_failures_total":           "counter",
		"escaped_intents_admitted_total":        "counter",
		"escaped_intents_idempotent_hits_total": "counter",
		"escaped_quota_rejections_total":        "counter",
		"escaped_reconcile_runs_total":          "counter",
		"escaped_reconcile_errors_total":        "counter",
		"escaped_heals_total":                   "counter",
		"escaped_heal_failures_total":           "counter",
		"escaped_queue_depth":                   "gauge",
		"escaped_reconcile_lag_seconds":         "gauge",
		"escaped_reconcile_backlog":             "gauge",
		"escaped_recovered_wal_records":         "gauge",
	}
	var m Metrics
	m.RequestsTotal.Add(7)
	m.QueueDepth.Store(3)
	m.Heals.Add(2)
	m.HealFailures.Add(1)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	got := map[string]string{}
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d is not a sample: %q", i+1, line)
		}
		if i < 2 || !strings.HasPrefix(lines[i-2], "# HELP "+name+" ") || !strings.HasPrefix(lines[i-1], "# TYPE "+name+" ") {
			t.Errorf("sample %s (line %d) is not preceded by its HELP and TYPE lines", name, i+1)
			continue
		}
		if _, dup := got[name]; dup {
			t.Errorf("metric %s exposed twice", name)
		}
		got[name] = strings.TrimPrefix(lines[i-1], "# TYPE "+name+" ")
	}
	for name, typ := range want {
		if got[name] != typ {
			t.Errorf("metric %s has type %q, want %s", name, got[name], typ)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is exposed but not listed in this test", name)
		}
	}
	for _, sample := range []string{"escaped_requests_total 7", "escaped_queue_depth 3", "escaped_heals_total 2", "escaped_heal_failures_total 1"} {
		if !strings.Contains(buf.String(), "\n"+sample+"\n") {
			t.Errorf("sample %q missing from the exposition:\n%s", sample, buf.String())
		}
	}
}
