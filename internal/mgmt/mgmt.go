// Package mgmt is ESCAPE's VNF monitoring layer: the Clicky substitute of
// demo step 5 ("monitor the VNFs with Clicky"). A Monitor polls the
// ClickControl sockets of running VNFs for selected handlers, keeps a
// bounded sample history per handler, and renders a text dashboard —
// the "real-time management information on running VNFs" the abstract
// promises.
package mgmt

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"escape/internal/click"
)

// Target is one (VNF, handler) pair to poll.
type Target struct {
	// Name labels the VNF in reports ("web-chain/nf1").
	Name string
	// Control is the VNF's ClickControl address.
	Control string
	// Handlers are handler specs to read ("cnt.count", "fw.dropped").
	Handlers []string
}

// sample is one polled value.
type sample struct {
	At    time.Time
	Value string
	Err   error
}

// Monitor polls targets at a fixed interval.
type Monitor struct {
	interval time.Duration
	history  int

	mu      sync.Mutex
	targets []Target
	clients map[string]*click.ControlClient
	series  map[string][]sample // "name handler" → ring of samples
	stopCh  chan struct{}
	done    chan struct{}
	running bool
}

// NewMonitor creates a monitor polling at interval and retaining history
// samples per handler (defaults: 1s, 60 samples).
func NewMonitor(interval time.Duration, history int) *Monitor {
	if interval <= 0 {
		interval = time.Second
	}
	if history <= 0 {
		history = 60
	}
	return &Monitor{
		interval: interval,
		history:  history,
		clients:  map[string]*click.ControlClient{},
		series:   map[string][]sample{},
	}
}

// Add registers a target (before or while running).
func (m *Monitor) Add(t Target) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.targets = append(m.targets, t)
}

// Start begins polling in a background goroutine.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return
	}
	m.running = true
	m.stopCh = make(chan struct{})
	m.done = make(chan struct{})
	m.mu.Unlock()
	go m.loop()
}

// Stop halts polling and closes control connections.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	close(m.stopCh)
	done := m.done
	m.mu.Unlock()
	<-done
	m.mu.Lock()
	for _, c := range m.clients {
		c.Close()
	}
	m.clients = map[string]*click.ControlClient{}
	m.mu.Unlock()
}

func (m *Monitor) loop() {
	defer close(m.done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	m.pollOnce() // immediate first sample
	for {
		select {
		case <-m.stopCh:
			return
		case <-ticker.C:
			m.pollOnce()
		}
	}
}

// PollOnce polls every target once (exported for deterministic tests and
// one-shot CLI use).
func (m *Monitor) PollOnce() { m.pollOnce() }

func (m *Monitor) pollOnce() {
	m.mu.Lock()
	targets := append([]Target(nil), m.targets...)
	m.mu.Unlock()
	now := time.Now()
	for _, t := range targets {
		client, err := m.client(t.Control)
		for _, h := range t.Handlers {
			key := t.Name + " " + h
			var s sample
			s.At = now
			if err != nil {
				s.Err = err
			} else {
				v, rerr := client.Read(h)
				if rerr != nil {
					s.Err = rerr
					// Protocol-level errors (unknown handler) leave the
					// session usable; transport errors kill it, so drop
					// the client and let the next poll redial.
					var he *click.HandlerError
					if !errors.As(rerr, &he) {
						m.dropClient(t.Control)
						err = rerr
					}
				} else {
					s.Value = v
				}
			}
			m.record(key, s)
		}
	}
}

func (m *Monitor) client(addr string) (*click.ControlClient, error) {
	m.mu.Lock()
	c, ok := m.clients[addr]
	m.mu.Unlock()
	if ok {
		return c, nil
	}
	c, err := click.DialControl(addr)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.clients[addr] = c
	m.mu.Unlock()
	return c, nil
}

func (m *Monitor) dropClient(addr string) {
	m.mu.Lock()
	if c, ok := m.clients[addr]; ok {
		c.Close()
		delete(m.clients, addr)
	}
	m.mu.Unlock()
}

func (m *Monitor) record(key string, s sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ring := append(m.series[key], s)
	if len(ring) > m.history {
		ring = ring[len(ring)-m.history:]
	}
	m.series[key] = ring
}

// Dashboard renders the latest value of every series as an aligned text
// table, sorted by key.
func (m *Monitor) Dashboard() string {
	m.mu.Lock()
	keys := make([]string, 0, len(m.series))
	for k := range m.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	width := 0
	for _, k := range keys {
		if len(k) > width {
			width = len(k)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-*s  %s\n", width, "VNF HANDLER", "VALUE")
	for _, k := range keys {
		ring := m.series[k]
		last := ring[len(ring)-1]
		val := last.Value
		if last.Err != nil {
			val = "ERR " + last.Err.Error()
		}
		fmt.Fprintf(&sb, "%-*s  %s\n", width, k, val)
	}
	m.mu.Unlock()
	return sb.String()
}
