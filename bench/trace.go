package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// functions. Parent is the index of the enclosing span in the same
// tracer (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit. It is
// used from one goroutine: concurrent clients get a tracer each and merge
// afterwards.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

// rename relabels a span once its outcome is known (admit ok / reject).
func (t *tracer) rename(i int, name string) { t.spans[i].Name = name }

// add records a span whose boundaries were observed elsewhere (lifecycle
// event timestamps).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return len(t.spans) - 1
}

// merge appends another tracer's spans, re-basing their parent indices.
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start += int64(o.epoch.Sub(t.epoch))
		s.End += int64(o.epoch.Sub(t.epoch))
		t.spans = append(t.spans, s)
	}
}

// layerTimes is what the per-layer table is derived from: for every span
// name the self time of each span (duration minus the part its direct
// children cover), in microseconds.
func (t *tracer) layerTimes() map[string]sample {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]sample{}
	for i, s := range t.spans {
		self := s.End - s.Start - child[i]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// spanFile is what -spans writes: the raw spans plus the table derived
// from them.
type spanFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Layers   map[string]float64 `json:"per_layer"`
	SelfUS   map[string]selfRow `json:"self_time_us"`
	Spans    []span             `json:"spans"`
}

type selfRow struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Total float64 `json:"total"`
}

func writeSpans(path string, f spanFile, t *tracer) error {
	f.Spans = t.spans
	f.SelfUS = map[string]selfRow{}
	for name, s := range t.layerTimes() {
		f.SelfUS[name] = selfRow{N: len(s), P50: s.median(), P99: s.quantile(0.99), Total: s.sum()}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
