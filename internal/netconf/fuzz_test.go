package netconf

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame fuzzes both NETCONF framing modes (RFC 6242
// end-of-message and chunked): arbitrary reader input must never panic or
// allocate unboundedly, and every payload written by our framer must read
// back per the framing contract.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte("<rpc/>]]>]]>"), false)
	f.Add([]byte("<hello/>"), false) // no delimiter: reader must just EOF
	f.Add([]byte("\n#5\nhello\n##\n"), true)
	f.Add([]byte("\n#3\nabc\n#2\nde\n##\n"), true) // multi-chunk
	f.Add([]byte("\n##\n"), true)                  // empty message
	f.Add([]byte("\n#0\n\n##\n"), true)            // invalid zero chunk
	f.Add([]byte("\n#99999999999\n"), true)        // oversized length
	f.Add([]byte("\n#3\nabc\n#16777214\n"), true)  // chunks summing past maxMessage
	f.Add([]byte("]]>]]>"), false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, chunked bool) {
		// Arbitrary input through the reader: errors allowed, panics not.
		in := newFramer(bytes.NewBuffer(append([]byte(nil), data...)))
		if chunked {
			in.upgrade()
		}
		_, _ = in.ReadMessage()

		// Round trip: treat the input as a payload.
		var buf bytes.Buffer
		fr := newFramer(&buf)
		if chunked {
			fr.upgrade()
		}
		if err := fr.WriteMessage(data); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
		got, err := fr.ReadMessage()
		if err != nil {
			t.Fatalf("ReadMessage after WriteMessage(%q): %v", data, err)
		}
		if chunked {
			// Chunked framing is exact for every payload.
			if !bytes.Equal(got, data) {
				t.Fatalf("chunked round trip: wrote %q, read %q", data, got)
			}
			return
		}
		// EOM framing terminates at the first delimiter occurrence in
		// payload+delimiter (a payload containing or composing "]]>]]>"
		// legitimately truncates — inherent to the RFC 6242 §4.3 format)
		// and trims surrounding whitespace.
		combined := append(append([]byte(nil), data...), eomDelimiter...)
		end := bytes.Index(combined, eomDelimiter)
		want := bytes.TrimSpace(combined[:end])
		if !bytes.Equal(got, want) {
			t.Fatalf("EOM round trip: wrote %q, read %q, want %q", data, got, want)
		}
	})
}
