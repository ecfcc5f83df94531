package api

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"escape/internal/sg"
)

// Desired is the declared goal state of an intent.
type Desired string

const (
	// DesiredRun: the service should be deployed and running.
	DesiredRun Desired = "run"
	// desiredRemoved: the service should be torn down; the intent is
	// forgotten once the reconciler confirms it is gone.
	desiredRemoved Desired = "removed"
)

// Intent is one durable unit of desired state: a tenant's service
// graph plus the goal the reconciler converges toward. ID doubles as
// the backend service name ("tenant/service"), which is what lets the
// quota gate attribute the eventual commit back to the tenant.
type Intent struct {
	ID      string          `json:"id"`
	Tenant  string          `json:"tenant"`
	Service string          `json:"service"`
	Graph   json.RawMessage `json:"graph"`
	// Hash is the sha256 of the canonical graph JSON: the idempotency
	// key. Re-POSTing a byte-different but semantically identical graph
	// hashes the canonical re-encoding, so field order or whitespace
	// differences do not defeat it.
	Hash    string    `json:"hash"`
	Desired Desired   `json:"desired"`
	Seq     uint64    `json:"seq"`
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
}

// CanonicalGraph parses, validates and re-encodes a graph to its
// canonical JSON plus content hash. The round-trip through sg.FromJSON
// is what canonicalizes: two requests that decode to the same graph
// encode to the same bytes. The result is compacted so it survives a
// trip through encoding/json (which compacts embedded RawMessages)
// byte-identical.
func CanonicalGraph(raw []byte) (*sg.Graph, json.RawMessage, string, error) {
	g, err := sg.FromJSON(raw)
	if err != nil {
		return nil, nil, "", err
	}
	enc, err := g.ToJSON()
	if err != nil {
		return nil, nil, "", err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, enc); err != nil {
		return nil, nil, "", err
	}
	canon := buf.Bytes()
	sum := sha256.Sum256(canon)
	return g, canon, hex.EncodeToString(sum[:]), nil
}

// NewIntent builds a tenant's intent to run g, renaming g to its
// backend service name (ServiceName(tenant, g.Name)), which is the
// intent's ID. g must be valid (sg.FromJSON or Graph.Validate passed):
// its canonical form is one compact encoding of it, the bytes
// CanonicalGraph would give for any encoding of the same graph.
func NewIntent(tenant string, g *sg.Graph) (*Intent, error) {
	service := g.Name
	g.Name = ServiceName(tenant, service)
	canon, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	return &Intent{ID: g.Name, Tenant: tenant, Service: service, Graph: canon, Hash: hex.EncodeToString(sum[:]), Desired: DesiredRun}, nil
}

// walRecord is one append-only log entry. Exactly one of the payload
// fields is set, selected by Op.
type walRecord struct {
	Seq    uint64  `json:"seq"`
	Op     string  `json:"op"` // "intent" | "forget" | "tenant"
	Intent *Intent `json:"intent,omitempty"`
	Name   string  `json:"name,omitempty"` // forget: intent ID
	Tenant *Tenant `json:"tenant,omitempty"`
}

// snapshotFile is the periodic full-state checkpoint. Replay = load
// snapshot, then apply WAL records with Seq > snapshot Seq.
type snapshotFile struct {
	Seq     uint64    `json:"seq"`
	Tenants []*Tenant `json:"tenants"`
	Intents []*Intent `json:"intents"`
}

// snapshotEvery bounds WAL growth: after this many appends the store
// checkpoints and truncates the log, keeping recovery O(snapshot +
// recent appends) instead of O(history).
const defaultSnapshotEvery = 256

// Store is the durable intent store: an in-memory map of tenants and
// intents backed by a fsync-per-append WAL with periodic atomic
// snapshots. Every mutation is on disk before the call returns, so a
// kill -9 at any instant loses at most the request that had not yet
// been acknowledged; a torn final WAL line (the crash landed mid
// write) is detected and dropped during replay.
//
// Writers and readers take different locks, so a reader waits on no
// other intent's fsync: wmu serializes every mutation end to end (check,
// encode, write, fsync, apply) and snapshots, and mu guards the maps,
// held for writing only while a record that is already durable is
// applied. Only a wmu holder changes the maps, seq, appends or the WAL,
// so writers read the maps under wmu alone. The one read that waits is
// Intent(id) while a write of that same intent is queued or in flight:
// it answers with the state the write leaves, as it did when readers
// queued behind every write.
type Store struct {
	wmu sync.Mutex
	mu  sync.RWMutex
	// writing counts the writes of each intent ID that are queued or in
	// flight; written (on mu's read lock) is broadcast as each ends.
	writing map[string]int
	written *sync.Cond
	dir     string
	wal     *os.File
	seq     uint64
	appends int
	every   int
	tenants map[string]*Tenant
	intents map[string]*Intent
	// replayed counts WAL records applied at Open (observability: the
	// daemon logs it so operators can see recovery happen).
	replayed int
	torn     bool
}

func (s *Store) walPath() string  { return filepath.Join(s.dir, "wal.log") }
func (s *Store) snapPath() string { return filepath.Join(s.dir, "snapshot.json") }

// OpenStore opens (creating if needed) the store rooted at dir and
// replays snapshot + WAL into memory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		every:   defaultSnapshotEvery,
		tenants: map[string]*Tenant{},
		intents: map[string]*Intent{},
		writing: map[string]int{},
	}
	s.written = sync.NewCond(s.mu.RLocker())
	if err := s.replay(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// replay loads the snapshot, then applies every complete WAL record.
// A record counts as complete only when it is newline-terminated and
// parses: appendLocked writes record+newline in one call and fsyncs
// before acknowledging, so an unterminated or unparsable final line is
// a write the crash interrupted before the ack — never durable state.
// That torn tail is not just skipped but truncated from the file;
// OpenStore reopens the WAL with O_APPEND, and without the truncate
// the first post-recovery append would concatenate onto the partial
// record, poisoning that merged line for the *next* replay and
// silently losing every acknowledged record after it. A malformed line
// with complete records behind it cannot be a torn tail; that is real
// corruption, and the store refuses to open rather than serve a
// silently truncated state.
func (s *Store) replay() error {
	if raw, err := os.ReadFile(s.snapPath()); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(raw, &snap); err != nil {
			return fmt.Errorf("api: corrupt snapshot %s: %w", s.snapPath(), err)
		}
		s.seq = snap.Seq
		for _, t := range snap.Tenants {
			s.tenants[t.Name] = t
		}
		for _, in := range snap.Intents {
			s.intents[in.ID] = in
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	raw, err := os.ReadFile(s.walPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	good := 0 // offset just past the last complete record
	for off := 0; off < len(raw); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			// Unterminated tail: the crash landed mid-write, before the
			// record was fsync'd and acknowledged. Drop it.
			s.torn = true
			break
		}
		line := bytes.TrimSpace(raw[off : off+nl])
		off += nl + 1
		if len(line) == 0 {
			good = off
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if off >= len(raw) {
				// Malformed final line: a torn tail whose partial flush
				// happened to include a newline. Drop it.
				s.torn = true
				break
			}
			return fmt.Errorf("api: corrupt WAL %s: unparsable record at byte %d with complete records after it: %w",
				s.walPath(), good, err)
		}
		good = off
		if rec.Seq <= s.seq {
			continue // already captured by the snapshot
		}
		s.apply(&rec)
		s.seq = rec.Seq
		s.replayed++
	}
	if good < len(raw) {
		// Cut the torn tail off before the WAL is reopened O_APPEND, so
		// the next append starts on its own line instead of merging into
		// the partial record.
		f, err := os.OpenFile(s.walPath(), os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := f.Truncate(int64(good)); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// apply replays one record into memory.
func (s *Store) apply(rec *walRecord) {
	switch rec.Op {
	case "intent":
		s.intents[rec.Intent.ID] = rec.Intent
	case "forget":
		delete(s.intents, rec.Name)
	case "tenant":
		s.tenants[rec.Tenant.Name] = rec.Tenant
	}
}

// Replayed reports how many WAL records (beyond the snapshot) the
// store applied at Open, and whether it dropped a torn tail.
func (s *Store) Replayed() (records int, torn bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replayed, s.torn
}

// append persists one record: encode, write, fsync — the record is
// durable before the mutation is visible to any reader. Called with
// s.wmu held; it takes s.mu only to apply the durable record.
func (s *Store) appendLocked(rec *walRecord) error {
	s.seq++
	rec.Seq = s.seq
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := s.wal.Write(b); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	s.apply(rec)
	s.mu.Unlock()
	s.appends++
	if s.appends >= s.every {
		if err := s.snapshotLocked(); err != nil {
			return err
		}
	}
	return nil
}

// writeIntent marks a write of intent id as queued until the returned
// func ends it: Intent(id) waits for it.
func (s *Store) writeIntent(id string) (end func()) {
	s.mu.Lock()
	s.writing[id]++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		if s.writing[id]--; s.writing[id] == 0 {
			delete(s.writing, id)
		}
		s.mu.Unlock()
		s.written.Broadcast()
	}
}

// snapshotLocked checkpoints the full state: write to a temp file,
// fsync, atomically rename over the old snapshot, then truncate the
// WAL. A crash between rename and truncate is safe — replay skips WAL
// records at or below the snapshot seq. Called with s.wmu held.
func (s *Store) snapshotLocked() error {
	snap := snapshotFile{Seq: s.seq}
	for _, t := range s.tenants {
		snap.Tenants = append(snap.Tenants, t)
	}
	for _, in := range s.intents {
		snap.Intents = append(snap.Intents, in)
	}
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Name < snap.Tenants[j].Name })
	sort.Slice(snap.Intents, func(i, j int) bool { return snap.Intents[i].ID < snap.Intents[j].ID })
	b, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	tmp := s.snapPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return err
	}
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return err
	}
	s.appends = 0
	return nil
}

// Tenants lists tenants sorted by name.
func (s *Store) Tenants() []*Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// tenantByToken resolves a bearer token, or nil. Every stored token is
// compared in constant time, and the scan never breaks early, so
// response timing leaks neither a prefix match nor which tenant (if
// any) the token hit.
func (s *Store) tenantByToken(token string) *Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var found *Tenant
	for _, t := range s.tenants {
		if subtle.ConstantTimeCompare([]byte(t.Token), []byte(token)) == 1 && found == nil {
			found = t
		}
	}
	return found
}

// nextVLANBase carves the next free tenant tag block, or 0 when the
// stitch range is exhausted (tenant still works, just without explicit
// tag rights). Called with s.wmu held.
func (s *Store) nextVLANBaseLocked() int {
	used := map[int]bool{}
	for _, t := range s.tenants {
		if t.VLANBase != 0 {
			used[t.VLANBase] = true
		}
	}
	for base := sg.MinStitchTag; base+vlanBlockSize-1 <= sg.MaxStitchTag; base += vlanBlockSize {
		if !used[base] {
			return base
		}
	}
	return 0
}

// CreateTenant mints a tenant with a fresh token and VLAN block and
// persists it. Fails if the name is taken.
func (s *Store) CreateTenant(name string, q Quota) (*Tenant, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return nil, fmt.Errorf("api: tenant %q already exists", name)
	}
	t := &Tenant{Name: name, Token: newToken(), Quota: q, VLANBase: s.nextVLANBaseLocked()}
	if err := s.appendLocked(&walRecord{Op: "tenant", Tenant: t}); err != nil {
		return nil, err
	}
	return t, nil
}

// putIntent durably upserts an intent (Seq/Updated are stamped here).
func (s *Store) putIntent(in *Intent, now time.Time) error {
	defer s.writeIntent(in.ID)()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if prev := s.intents[in.ID]; prev != nil {
		in.Created = prev.Created
	} else if in.Created.IsZero() {
		in.Created = now
	}
	in.Updated = now
	in.Seq = s.seq + 1 // the seq appendLocked will assign
	return s.appendLocked(&walRecord{Op: "intent", Intent: in})
}

// errIntentConflict reports an UpsertIntent whose ID is already held
// by a live intent with a different graph.
var errIntentConflict = errors.New("api: intent exists with a different graph")

// UpsertIntent performs the duplicate/conflict check and the durable
// upsert atomically under the writer lock, closing the check-then-put race
// where two concurrent POSTs of the same service name both observe no
// prior intent and the last writer silently wins. It returns the
// stored intent and whether the call was an idempotent no-op (an
// identical live graph already held the ID); when a live intent holds
// the ID with a different hash, the existing intent is returned
// alongside errIntentConflict and nothing is written.
func (s *Store) UpsertIntent(in *Intent, now time.Time) (*Intent, bool, error) {
	defer s.writeIntent(in.ID)()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if prev := s.intents[in.ID]; prev != nil {
		if prev.Desired == DesiredRun {
			if prev.Hash == in.Hash {
				return prev, true, nil
			}
			return prev, false, errIntentConflict
		}
		in.Created = prev.Created // reviving keeps the original birth time
	}
	if in.Created.IsZero() {
		in.Created = now
	}
	in.Updated = now
	in.Seq = s.seq + 1 // the seq appendLocked will assign
	if err := s.appendLocked(&walRecord{Op: "intent", Intent: in}); err != nil {
		return nil, false, err
	}
	return in, false, nil
}

// Forget durably removes an intent record entirely (after the
// reconciler confirmed teardown).
func (s *Store) Forget(id string) error {
	defer s.writeIntent(id)()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, ok := s.intents[id]; !ok {
		return nil
	}
	return s.appendLocked(&walRecord{Op: "forget", Name: id})
}

// Intent returns a copy-safe pointer to an intent, or nil. Intents are
// treated as immutable once stored: updates go through putIntent with
// a fresh value. A write of the same intent that is queued or in flight
// is waited for; writes of other intents are not.
func (s *Store) Intent(id string) *Intent {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for s.writing[id] > 0 {
		s.written.Wait()
	}
	return s.intents[id]
}

// Intents lists intents sorted by ID, optionally filtered by tenant.
func (s *Store) Intents(tenant string) []*Intent {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Intent, 0, len(s.intents))
	for _, in := range s.intents {
		if tenant == "" || in.Tenant == tenant {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Snapshot forces a checkpoint now (used at clean shutdown).
func (s *Store) Snapshot() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.snapshotLocked()
}

// Close releases the WAL handle (no implicit snapshot: closing must
// stay crash-equivalent so recovery paths are the tested paths).
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.wal.Close()
}
