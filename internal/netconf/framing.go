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
	"slices"
	"strconv"

	"escape/internal/yang"
)

// Base capability URNs.
const (
	capBase10 = "urn:ietf:params:netconf:base:1.0"
	capBase11 = "urn:ietf:params:netconf:base:1.1"
)

// baseNS is the NETCONF XML namespace.
const baseNS = "urn:ietf:params:xml:ns:netconf:base:1.0"

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
	// msg is the buffer messages are read into, reused from message to
	// message: what readMessage returns is valid until the next read.
	msg []byte
	// out is the buffer writeData renders into, reused the same way. A
	// session's writer and reader may run at once; each has its buffer.
	out []byte
}

func newFramer(rw io.ReadWriter) *framer {
	return &framer{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// upgrade switches to chunked framing for all subsequent messages.
func (f *framer) upgrade() { f.chunked = true }

// writeMessage frames and flushes one message.
func (f *framer) writeMessage(msg []byte) error {
	if err := f.writeFrame(msg); err != nil {
		return err
	}
	return f.w.Flush()
}

// writeData renders d and frames it into the write buffer, flushing it
// when flush is set.
func (f *framer) writeData(d *yang.Data, flush bool) error {
	f.out = d.AppendXML(f.out[:0])
	if flush {
		return f.writeMessage(f.out)
	}
	return f.writeFrame(f.out)
}

// writeFrame frames one message into the write buffer without flushing
// it, so a run of messages leaves in one write.
func (f *framer) writeFrame(msg []byte) error {
	_, err := f.w.Write(f.appendFrame(f.w.AvailableBuffer(), msg))
	return err
}

// appendFrame appends msg, framed, to dst.
func (f *framer) appendFrame(dst, msg []byte) []byte {
	if !f.chunked {
		return append(append(dst, msg...), eomDelimiter...)
	}
	// ␊#<len>␊<data> … ␊##␊ — chunk-size must be ≥1 (RFC 6242 §4.2), so
	// an empty message is just the end-of-chunks marker.
	if len(msg) > 0 {
		dst = strconv.AppendInt(append(dst, '\n', '#'), int64(len(msg)), 10)
		dst = append(append(dst, '\n'), msg...)
	}
	return append(dst, "\n##\n"...)
}

// readMessage reads one framed message into the framer's buffer: the
// bytes are valid until the next readMessage.
func (f *framer) readMessage() ([]byte, error) {
	if f.chunked {
		return f.readChunked()
	}
	return f.readEOM()
}

func (f *framer) readEOM() ([]byte, error) {
	buf := f.msg[:0]
	for {
		b, err := f.r.ReadByte()
		if err != nil {
			return nil, err
		}
		buf = append(buf, b)
		if b == '>' && bytes.HasSuffix(buf, eomDelimiter) {
			f.msg = buf
			return bytes.TrimSpace(buf[:len(buf)-len(eomDelimiter)]), nil
		}
		if len(buf) > maxMessage {
			return nil, fmt.Errorf("netconf: message exceeds %d bytes without EOM", maxMessage)
		}
	}
}

func (f *framer) readChunked() ([]byte, error) {
	buf := f.msg[:0]
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
			f.msg = buf
			return buf, nil
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
		if len(buf)+n > maxMessage {
			return nil, fmt.Errorf("netconf: chunked message exceeds %d bytes", maxMessage)
		}
		if buf, err = f.readN(buf, n); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// readN appends exactly n bytes read from the peer to buf. The buffer
// grows as the bytes arrive, a bounded step at a time, so a chunk length
// the peer claims is not an allocation it can make without sending it.
func (f *framer) readN(buf []byte, n int) ([]byte, error) {
	for n > 0 {
		k := min(n, 64<<10)
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(f.r, buf[len(buf):len(buf)+k]); err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+k]
		n -= k
	}
	return buf, nil
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
