package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// storeState renders everything a replay restores, for comparison.
func storeState(t *testing.T, s *Store) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Tenants []*Tenant
		Intents []*Intent
	}{s.Tenants(), s.Intents("")})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzStoreReplayTruncated writes a history of valid records, then cuts
// the WAL at a fuzzed offset, as a crash could at any byte. The cut
// store must open, hold exactly the state of the newline-terminated
// records before the cut, and report a torn tail exactly when the cut
// lands mid-line. An append after that recovery must survive the next
// reopen beside the recovered prefix. Seeds: testdata/fuzz.
func FuzzStoreReplayTruncated(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2}, uint32(0))
	f.Add([]byte{0, 1, 3, 6, 2, 1}, uint32(300))
	f.Add([]byte{1, 1, 1}, uint32(1<<31))
	f.Fuzz(func(t *testing.T, ops []byte, cut uint32) {
		if len(ops) > 12 {
			ops = ops[:12]
		}
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(1_700_000_000, 0).UTC()
		// states[k] is the state after the first k records.
		states := []string{storeState(t, s)}
		for i, op := range ops {
			svc := fmt.Sprintf("svc%d", op/4%3)
			seq := s.seq
			switch op % 4 {
			case 0:
				_, err = s.CreateTenant(fmt.Sprintf("t%d", i), Quota{CPU: float64(op)})
			case 1:
				err = s.putIntent(testIntent(t, "acme", svc), now)
			case 2:
				err = s.Forget(ServiceName("acme", svc))
			case 3:
				in := testIntent(t, "acme", svc)
				in.Desired = desiredRemoved
				err = s.putIntent(in, now)
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.seq != seq { // a Forget of an absent intent writes nothing
				states = append(states, storeState(t, s))
			}
		}
		s.Close()

		walPath := filepath.Join(dir, "wal.log")
		wal, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(wal, []byte{'\n'}); n != len(states)-1 {
			t.Fatalf("WAL holds %d lines for %d records", n, len(states)-1)
		}
		c := int(cut % uint32(len(wal)+1))
		whole := bytes.Count(wal[:c], []byte{'\n'})
		midLine := c > 0 && wal[c-1] != '\n'
		if err := os.WriteFile(walPath, wal[:c], 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("cut at byte %d of %d: store refused to open: %v", c, len(wal), err)
		}
		if n, torn := s2.Replayed(); n != whole || torn != midLine {
			t.Errorf("cut at byte %d: Replayed() = (%d, torn=%v), want (%d, torn=%v)", c, n, torn, whole, midLine)
		}
		if got := storeState(t, s2); got != states[whole] {
			t.Fatalf("cut at byte %d: state after replay\n%s\nwant the first %d records'\n%s", c, got, whole, states[whole])
		}
		if err := s2.putIntent(testIntent(t, "late", "after"), now); err != nil {
			t.Fatal(err)
		}
		want := storeState(t, s2)
		s2.Close()

		s3, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("reopen after the post-recovery append: %v", err)
		}
		defer s3.Close()
		if n, torn := s3.Replayed(); n != whole+1 || torn {
			t.Errorf("second replay = (%d, torn=%v), want (%d, torn=false)", n, torn, whole+1)
		}
		if got := storeState(t, s3); got != want {
			t.Errorf("second replay lost the post-recovery append:\n%s\nwant\n%s", got, want)
		}
	})
}
