// Package netconf implements the NETCONF protocol (RFC 6241/6242 subset)
// over TCP: ESCAPE's orchestrator manages VNF containers through NETCONF
// sessions, with OpenYuma playing the server role in the original system
// and this package playing both roles here.
//
// Supported: hello/capability exchange, end-of-message framing, chunked
// framing (negotiated via the :base:1.1 capability), <get>, <get-config>,
// <edit-config> (merge), <close-session>, custom RPC dispatch (the
// vnf_starter operations of internal/vnfagent), and structured
// <rpc-error> replies.
package netconf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// Base capability URNs.
const (
	CapBase10 = "urn:ietf:params:netconf:base:1.0"
	CapBase11 = "urn:ietf:params:netconf:base:1.1"
)

// BaseNS is the NETCONF XML namespace.
const BaseNS = "urn:ietf:params:xml:ns:netconf:base:1.0"

var eomDelimiter = []byte("]]>]]>")

// maxMessage bounds one framed message in either framing: the reader
// refuses a peer's message before buffering more than this.
const maxMessage = 16 << 20

// framer reads and writes NETCONF messages with either end-of-message or
// chunked framing. Hello messages always use EOM; the session upgrades to
// chunked after both peers advertise base:1.1 (RFC 6242 §4.1).
type framer struct {
	r       *bufio.Reader
	w       *bufio.Writer
	chunked bool
}

func newFramer(rw io.ReadWriter) *framer {
	return &framer{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// upgrade switches to chunked framing for all subsequent messages.
func (f *framer) upgrade() { f.chunked = true }

// WriteMessage frames and flushes one message.
func (f *framer) WriteMessage(msg []byte) error {
	if err := f.writeFrame(msg); err != nil {
		return err
	}
	return f.w.Flush()
}

// writeFrame frames one message into the write buffer without flushing
// it, so a pipelined flight of messages leaves in one write.
func (f *framer) writeFrame(msg []byte) error {
	if f.chunked {
		// ␊#<len>␊<data> … ␊##␊ — chunk-size must be ≥1 (RFC 6242 §4.2),
		// so an empty message is just the end-of-chunks marker.
		if len(msg) > 0 {
			if _, err := fmt.Fprintf(f.w, "\n#%d\n", len(msg)); err != nil {
				return err
			}
			if _, err := f.w.Write(msg); err != nil {
				return err
			}
		}
		_, err := f.w.WriteString("\n##\n")
		return err
	}
	if _, err := f.w.Write(msg); err != nil {
		return err
	}
	_, err := f.w.Write(eomDelimiter)
	return err
}

// ReadMessage reads one framed message.
func (f *framer) ReadMessage() ([]byte, error) {
	if f.chunked {
		return f.readChunked()
	}
	return f.readEOM()
}

func (f *framer) readEOM() ([]byte, error) {
	var buf bytes.Buffer
	for {
		b, err := f.r.ReadByte()
		if err != nil {
			return nil, err
		}
		buf.WriteByte(b)
		if b == '>' && bytes.HasSuffix(buf.Bytes(), eomDelimiter) {
			msg := buf.Bytes()[:buf.Len()-len(eomDelimiter)]
			return bytes.TrimSpace(append([]byte(nil), msg...)), nil
		}
		if buf.Len() > maxMessage {
			return nil, fmt.Errorf("netconf: message exceeds %d bytes without EOM", maxMessage)
		}
	}
}

func (f *framer) readChunked() ([]byte, error) {
	var buf bytes.Buffer
	for {
		// Expect "\n#" then either a length or "#\n" (end of chunks).
		if err := f.expect('\n'); err != nil {
			return nil, err
		}
		if err := f.expect('#'); err != nil {
			return nil, err
		}
		b, err := f.r.ReadByte()
		if err != nil {
			return nil, err
		}
		if b == '#' {
			if err := f.expect('\n'); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
		// Parse the chunk length (first digit already consumed).
		lenBuf := []byte{b}
		for {
			c, err := f.r.ReadByte()
			if err != nil {
				return nil, err
			}
			if c == '\n' {
				break
			}
			lenBuf = append(lenBuf, c)
			if len(lenBuf) > 10 {
				return nil, fmt.Errorf("netconf: chunk length too long")
			}
		}
		n, err := strconv.Atoi(string(lenBuf))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("netconf: bad chunk length %q", lenBuf)
		}
		if buf.Len()+n > maxMessage {
			return nil, fmt.Errorf("netconf: chunked message exceeds %d bytes", maxMessage)
		}
		if _, err := io.CopyN(&buf, f.r, int64(n)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

func (f *framer) expect(want byte) error {
	got, err := f.r.ReadByte()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("netconf: framing error: expected %q, got %q", want, got)
	}
	return nil
}
