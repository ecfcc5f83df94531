package catalog

import (
	"math/rand"
	"testing"

	"escape/internal/click"
)

// naiveContains is the byte-by-byte search DPI ran before it used
// bytes.Contains, kept as the reference the element is checked against.
func naiveContains(haystack, needle []byte) bool {
	if len(needle) == 0 || len(haystack) < len(needle) {
		return false
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		j := 0
		for ; j < len(needle); j++ {
			if haystack[i+j] != needle[j] {
				break
			}
		}
		if j == len(needle) {
			return true
		}
	}
	return false
}

// TestDPIMatchesReference runs the DPI element over seeded frames against
// naiveContains: a signature at the start, at the end, behind a partial
// prefix of itself (the repeat a naive restart must not skip), and absent,
// besides frames from a three-letter alphabet where near-misses abound.
func TestDPIMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	word := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		sig := word(1 + rng.Intn(8))
		fill := word(rng.Intn(100))
		var frame []byte
		want := -1 // unknown: the reference decides
		switch i % 5 {
		case 0: // at the start
			frame, want = cat(sig, fill), 1
		case 1: // at the end
			frame, want = cat(fill, sig), 1
		case 2: // split across a partial-prefix repeat
			cut := rng.Intn(len(sig))
			frame, want = cat(fill, sig[:cut], sig, fill), 1
		case 3: // absent: the frame carries all but the last byte, which it never has
			sig = cat(sig, []byte("d"))
			frame, want = cat(fill, sig[:len(sig)-1], fill), 0
		default:
			frame = fill
		}
		ref := naiveContains(frame, sig)
		if want >= 0 && ref != (want == 1) {
			t.Fatalf("case %d: reference says %v for %q in %q", i, ref, sig, frame)
		}
		d := &DPI{signature: sig}
		if p := d.SimpleAction(click.NewPacket(frame)); p != nil {
			p.Kill()
		}
		if got := d.matches == 1; got != ref {
			t.Fatalf("case %d: DPI matched %v, reference %v, for %q in %q", i, got, ref, sig, frame)
		}
	}
}
