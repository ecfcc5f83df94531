package api

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"escape/internal/catalog"
	"escape/internal/core"
	"escape/internal/sg"
)

// ServerConfig wires the HTTP layer to its collaborators.
type ServerConfig struct {
	Store      *Store
	Backend    Backend
	Reconciler *Reconciler
	Gate       *QuotaGate
	Metrics    *Metrics
	// Catalog enables two checks on POST: the advisory fast-path quota
	// pre-check (the authoritative check is the commit gate), and the
	// NF parameter check, which renders each NF's Click config as its
	// agent would.
	Catalog *catalog.Catalog
	// AdminToken authorizes tenant management. Empty disables the
	// tenant-management endpoints entirely.
	AdminToken string
	// QueueSlots bounds concurrently admitted /v1 requests; a request
	// arriving with every slot taken is rejected 429 + Retry-After
	// instead of piling up (default 64).
	QueueSlots int
	// Rate/Burst shape the per-tenant token bucket (requests/sec;
	// rate 0 disables limiting).
	Rate, Burst float64
	Log         *slog.Logger
}

// Server is the escaped HTTP/JSON control plane: versioned REST over
// the intent store, with bearer auth, per-tenant rate limiting and a
// bounded admission queue in front.
type Server struct {
	cfg ServerConfig
	mux *http.ServeMux
	sem chan struct{}
	rl  *rateLimiter
	log *slog.Logger
}

// NewServer builds the server and loads stored tenants into the quota
// gate (the recovery half of tenant durability). cfg.Reconciler is
// required: the handlers enqueue through it and ?wait blocks on it.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	if cfg.QueueSlots <= 0 {
		cfg.QueueSlots = 64
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		sem: make(chan struct{}, cfg.QueueSlots),
		rl:  newRateLimiter(cfg.Rate, cfg.Burst),
		log: cfg.Log,
	}
	if cfg.Gate != nil {
		for _, t := range cfg.Store.Tenants() {
			cfg.Gate.SetTenant(t)
		}
	}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.cfg.Metrics.WriteTo(w)
	})
	s.mux.HandleFunc("POST /v1/tenants", s.admin(s.handleCreateTenant))
	s.mux.HandleFunc("GET /v1/tenants", s.admin(s.handleListTenants))
	s.mux.HandleFunc("POST /v1/intents", s.queued(s.tenant(s.handlePostIntent)))
	s.mux.HandleFunc("GET /v1/intents", s.queued(s.tenant(s.handleListIntents)))
	s.mux.HandleFunc("GET /v1/intents/{service}", s.queued(s.tenant(s.handleGetIntent)))
	s.mux.HandleFunc("DELETE /v1/intents/{service}", s.queued(s.tenant(s.handleDeleteIntent)))
}

// Handler returns the full middleware stack.
func (s *Server) Handler() http.Handler { return s.logged(s.mux) }

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// logged is the outermost middleware: metrics + structured request log.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.cfg.Metrics.RequestsTotal.Add(1)
		if sw.code >= 500 {
			s.cfg.Metrics.RequestErrors.Add(1)
		}
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.code,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// slotKey carries the admission-slot release func in the request
// context, so a handler about to block (?wait) can give its slot back
// to the queue before sleeping.
type slotKey struct{}

// releaseSlot returns the request's admission-queue slot early. Safe
// to call any number of times (the release is once-guarded) and a
// no-op for requests that hold no slot.
func releaseSlot(r *http.Request) {
	if release, ok := r.Context().Value(slotKey{}).(func()); ok {
		release()
	}
}

// queued applies the bounded admission queue: acquire a slot or shed
// load with 429 + Retry-After. Requests never pile up past QueueSlots.
func (s *Server) queued(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			s.cfg.Metrics.QueueDepth.Add(1)
			var once sync.Once
			release := func() {
				once.Do(func() {
					s.cfg.Metrics.QueueDepth.Add(-1)
					<-s.sem
				})
			}
			defer release()
			next(w, r.WithContext(context.WithValue(r.Context(), slotKey{}, release)))
		default:
			s.cfg.Metrics.Rejected429.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "admission queue full")
		}
	}
}

// bearer extracts the Authorization bearer token.
func bearer(r *http.Request) string {
	h := r.Header.Get("Authorization")
	if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
		return tok
	}
	return ""
}

// admin guards tenant-management endpoints with the admin token.
func (s *Server) admin(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.AdminToken == "" ||
			subtle.ConstantTimeCompare([]byte(bearer(r)), []byte(s.cfg.AdminToken)) != 1 {
			s.cfg.Metrics.AuthFailures.Add(1)
			writeErr(w, http.StatusUnauthorized, "admin token required")
			return
		}
		next(w, r)
	}
}

// tenantHandler receives the authenticated tenant.
type tenantHandler func(w http.ResponseWriter, r *http.Request, t *Tenant)

// tenant authenticates the bearer token against the store and applies
// the per-tenant rate limit.
func (s *Server) tenant(next tenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok := bearer(r)
		if tok == "" {
			s.cfg.Metrics.AuthFailures.Add(1)
			writeErr(w, http.StatusUnauthorized, "bearer token required")
			return
		}
		t := s.cfg.Store.tenantByToken(tok)
		if t == nil {
			s.cfg.Metrics.AuthFailures.Add(1)
			writeErr(w, http.StatusUnauthorized, "unknown token")
			return
		}
		if ok, retry := s.rl.allow(t.Name); !ok {
			s.cfg.Metrics.Rejected429.Add(1)
			secs := int(retry/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeErr(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		next(w, r, t)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// --- tenant management -------------------------------------------------

type createTenantReq struct {
	Name  string `json:"name"`
	Quota Quota  `json:"quota"`
}

// decodeBody decodes one JSON value of at most limit bytes from body
// into v and refuses anything but whitespace after it.
func decodeBody(body io.Reader, limit int64, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, limit))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req createTenantReq
	if err := decodeBody(r.Body, 1<<20, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	if req.Name == "" || strings.ContainsAny(req.Name, "/ \t") {
		writeErr(w, http.StatusBadRequest, "tenant name must be non-empty and contain no '/' or spaces")
		return
	}
	if err := req.Quota.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad quota: "+err.Error())
		return
	}
	t, err := s.cfg.Store.CreateTenant(req.Name, req.Quota)
	if err != nil {
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	if s.cfg.Gate != nil {
		s.cfg.Gate.SetTenant(t)
	}
	writeJSON(w, http.StatusCreated, t)
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Store.Tenants())
}

// --- intents -----------------------------------------------------------

// decodeIntentBody decodes a POST /v1/intents body, {"graph": …}, of
// at most limit bytes, decoding the graph straight from the body: one
// pass, no intermediate copy. It keeps what decoding the body into a
// struct with a json.RawMessage graph field and then parsing that did:
// the member name matches case-insensitively, other members are ignored,
// the last "graph" member wins (each one is decoded into a fresh graph),
// and only data after the object is refused. A graph that is absent
// gives a nil graph, one that does not decode into sg.Graph gives a
// graph error; a body that is not JSON gives a body error.
func decodeIntentBody(body io.Reader, limit int64) (g *sg.Graph, graphErr, bodyErr error) {
	dec := json.NewDecoder(io.LimitReader(body, limit))
	tok, err := dec.Token()
	if err != nil {
		return nil, nil, err
	}
	if tok != nil { // a null body decodes as an empty one
		if tok != json.Delim('{') {
			return nil, nil, fmt.Errorf("json: cannot unmarshal %v into the intent body object", tok)
		}
		for dec.More() {
			if tok, err = dec.Token(); err != nil {
				return nil, nil, err
			}
			if key, _ := tok.(string); !strings.EqualFold(key, "graph") {
				var skip json.RawMessage
				if err := dec.Decode(&skip); err != nil {
					return nil, nil, err
				}
				continue
			}
			g, graphErr = new(sg.Graph), nil
			if err := dec.Decode(g); err != nil {
				var typeErr *json.UnmarshalTypeError
				if !errors.As(err, &typeErr) {
					return nil, nil, err
				}
				graphErr = fmt.Errorf("sg: parsing graph: %w", err)
			}
		}
		if _, err := dec.Token(); err != nil { // the closing brace
			return nil, nil, err
		}
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, errors.New("data after the JSON value")
	}
	return g, graphErr, nil
}

// intentStatus is the wire form of an intent plus live state.
type intentStatus struct {
	*Intent
	Running   bool   `json:"running"`
	LastError string `json:"last_error,omitempty"`
}

func (s *Server) status(in *Intent) intentStatus {
	return intentStatus{
		Intent:    in,
		Running:   s.cfg.Backend.Running(in.ID),
		LastError: s.cfg.Reconciler.LastError(in.ID),
	}
}

// precheckQuota rejects requests that already cannot fit the tenant's
// quota, before any durable state is written. The graph's demand is
// estimated with catalog defaults applied; requirement-raised bandwidth
// is only known after mapping, so the estimate can under- but never
// over-count. The commit gate remains the authoritative enforcement
// point.
func (s *Server) precheckQuota(t *Tenant, g *sg.Graph) error {
	if s.cfg.Gate == nil {
		return nil
	}
	var u usage
	u.cpu, u.mem, u.bw, u.services = s.cfg.Gate.Usage(t.Name)
	d := usage{services: 1}
	for _, nf := range g.NFs {
		cpu, mem := core.NFDemand(s.cfg.Catalog, nf)
		d.cpu += cpu
		d.mem += mem
	}
	for _, l := range g.Links {
		bw, _ := sg.BWOf(l.Bandwidth) // sg.FromJSON has range-checked it
		d.bw += bw
	}
	return t.Quota.check(t.Name, u, d)
}

// checkParams renders the Click config of every NF whose type the catalog
// knows, so that a parameter its VNF template refuses is a 400 before the
// intent is stored, not a deploy that fails on every retry. Unknown types
// are left to the deploy, as before.
func (s *Server) checkParams(g *sg.Graph) error {
	if s.cfg.Catalog == nil {
		return nil
	}
	for _, nf := range g.NFs {
		typ, err := s.cfg.Catalog.Lookup(nf.Type)
		if err != nil {
			continue
		}
		if _, err := typ.Render(nf.Params); err != nil {
			return fmt.Errorf("nf %s: %w", nf.ID, err)
		}
	}
	return nil
}

func (s *Server) handlePostIntent(w http.ResponseWriter, r *http.Request, t *Tenant) {
	g, graphErr, err := decodeIntentBody(r.Body, 4<<20)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: "+err.Error())
		return
	}
	if g == nil {
		writeErr(w, http.StatusBadRequest, "missing graph")
		return
	}
	if graphErr == nil {
		graphErr = g.Validate()
	}
	if graphErr != nil {
		writeErr(w, http.StatusBadRequest, "invalid graph: "+graphErr.Error())
		return
	}
	if g.Name == "" || strings.ContainsRune(g.Name, '/') {
		writeErr(w, http.StatusBadRequest, "graph name must be non-empty and tenant-local (no '/')")
		return
	}
	if err := t.checkGraphTags(g); err != nil {
		writeErr(w, http.StatusForbidden, err.Error())
		return
	}
	if err := s.checkParams(g); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	in, err := NewIntent(t.Name, g)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	id, hash := in.ID, in.Hash

	// Idempotency fast path: the same desired graph is acknowledged, not
	// re-admitted — no second intent, no second quota reservation. The
	// authoritative, race-free check is UpsertIntent below; this early
	// read only keeps idempotent retries from tripping the quota
	// pre-check when the tenant is already at its limit.
	if prev := s.cfg.Store.Intent(id); prev != nil && prev.Desired == DesiredRun {
		if prev.Hash == hash {
			s.cfg.Metrics.IntentsIdemHit.Add(1)
			s.finishIntent(w, r, prev, http.StatusOK)
			return
		}
		writeErr(w, http.StatusConflict, fmt.Sprintf("intent %q exists with a different graph (delete it first)", id))
		return
	}

	if err := s.precheckQuota(t, g); err != nil {
		s.cfg.Metrics.QuotaRejections.Add(1)
		writeErr(w, http.StatusForbidden, err.Error())
		return
	}

	stored, idem, err := s.cfg.Store.UpsertIntent(in, time.Now())
	if errors.Is(err, errIntentConflict) {
		// A concurrent POST of a different graph won the race for the ID.
		writeErr(w, http.StatusConflict, fmt.Sprintf("intent %q exists with a different graph (delete it first)", id))
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "persist: "+err.Error())
		return
	}
	if idem {
		// A concurrent identical POST won the race; acknowledge its intent.
		s.cfg.Metrics.IntentsIdemHit.Add(1)
		s.finishIntent(w, r, stored, http.StatusOK)
		return
	}
	s.cfg.Metrics.IntentsAdmitted.Add(1)
	s.cfg.Reconciler.Enqueue(id)
	s.finishIntent(w, r, stored, http.StatusAccepted)
}

// finishIntent replies with the intent's status, optionally blocking
// (?wait=<dur>) until the reconciler converged or failed it, or the wait
// expired.
func (s *Server) finishIntent(w http.ResponseWriter, r *http.Request, in *Intent, code int) {
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d <= 0 || d > 2*time.Minute {
			d = 30 * time.Second
		}
		// Give the admission-queue slot back before blocking: a waiting
		// request consumes nothing but a goroutine, and QueueSlots waited
		// POSTs from one tenant must not starve every other tenant's
		// requests out of the bounded queue for up to 2 minutes.
		releaseSlot(r)
		rec := s.cfg.Reconciler
		rec.Await(d, func() bool {
			return s.cfg.Backend.Running(in.ID) || rec.LastError(in.ID) != ""
		})
		code = http.StatusOK
	}
	writeJSON(w, code, s.status(in))
}

func (s *Server) handleListIntents(w http.ResponseWriter, r *http.Request, t *Tenant) {
	ins := s.cfg.Store.Intents(t.Name)
	out := make([]intentStatus, 0, len(ins))
	for _, in := range ins {
		out = append(out, s.status(in))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetIntent(w http.ResponseWriter, r *http.Request, t *Tenant) {
	id := ServiceName(t.Name, r.PathValue("service"))
	in := s.cfg.Store.Intent(id)
	if in == nil {
		writeErr(w, http.StatusNotFound, "no such intent")
		return
	}
	writeJSON(w, http.StatusOK, s.status(in))
}

func (s *Server) handleDeleteIntent(w http.ResponseWriter, r *http.Request, t *Tenant) {
	id := ServiceName(t.Name, r.PathValue("service"))
	in := s.cfg.Store.Intent(id)
	if in == nil {
		writeErr(w, http.StatusNotFound, "no such intent")
		return
	}
	upd := *in
	upd.Desired = desiredRemoved
	if err := s.cfg.Store.putIntent(&upd, time.Now()); err != nil {
		writeErr(w, http.StatusInternalServerError, "persist: "+err.Error())
		return
	}
	s.cfg.Reconciler.Enqueue(id)
	writeJSON(w, http.StatusAccepted, s.status(&upd))
}
