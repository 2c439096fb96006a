// Package serve is the process boundary for an ordered-transaction
// pipeline: a streaming server and client speaking a minimal
// length-prefixed framing over one TCP connection each, with the
// engine's predefined commit order as the externally visible contract
// — each connection's responses resolve in commit order.
//
// # Wire protocol
//
// A connection starts as HTTP/1.1 and upgrades to a raw byte stream.
// The client sends
//
//	POST /submit HTTP/1.1
//	Host: <host:port>
//	Connection: Upgrade
//	Upgrade: ostm-submit
//
// and the server answers "HTTP/1.1 101 Switching Protocols" with
// "Connection: Upgrade" and "Upgrade: ostm-submit" (a POST without the
// upgrade gets 426 Upgrade Required, a draining server 503). From then
// on request frames flow client→server and response frames
// server→client on the same socket, full duplex. The client ends its
// side by half-closing the connection; the server answers everything
// in flight and closes. All integers are little-endian, matching the
// engine's WAL record layout.
//
// Request frame:
//
//	u32 len | u64 id | u32 deadline_ms | payload (len-12 bytes)
//
// id is a client-chosen correlation token echoed verbatim (the client
// in this package uses a per-connection counter). deadline_ms, when
// non-zero, bounds the request server-side: the submission's
// backpressure wait and the response wait both run under a context
// expiring that many milliseconds after the frame is decoded, and
// expiry surfaces as a CodeCanceled response. payload is the encoded
// transaction in the pipeline Codec's wire form — the same bytes the
// WAL would store.
//
// Response frame:
//
//	u32 len | u64 id | u64 age | u8 code | msg (len-17 bytes)
//
// age is the global age the submission was assigned (zero when it was
// refused before age assignment — distinguishable from a genuine age
// zero by code). code is the typed wire error (CodeOK on success; see
// Code), msg a human-readable elaboration for non-OK codes.
//
// # Ordering contract
//
// Frames on one connection are submitted in arrival order, so their
// ages are assigned monotonically, and the server writes responses in
// exactly that order after waiting each ticket — responses arrive in
// commit order. The one exception is a frame whose deadline expires
// before its age commits: its CodeCanceled response is written at its
// position in the stream (order is still preserved; the response just
// no longer attests commit). Ordering holds per connection; ages
// interleave arbitrarily across connections.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/orderedstm/ostm/internal/arena"
)

// protocol is the Upgrade token of a submit stream.
const protocol = "ostm-submit"

// DefaultMaxFrame bounds the length prefix accepted by both sides
// (requests and responses) unless overridden in Config.
const DefaultMaxFrame = 1 << 20

const (
	reqHeaderLen  = 12 // u64 id + u32 deadline_ms
	respHeaderLen = 17 // u64 id + u64 age + u8 code
)

// appendRequestFrame appends one request frame to dst.
func appendRequestFrame(dst []byte, id uint64, deadlineMS uint32, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(reqHeaderLen+len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, deadlineMS)
	return append(dst, payload...)
}

// appendResponseFrame appends one response frame to dst.
func appendResponseFrame(dst []byte, id, age uint64, code Code, msg string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(respHeaderLen+len(msg)))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, age)
	dst = append(dst, byte(code))
	return append(dst, msg...)
}

// readFrameLen reads a frame's u32 length prefix in place. io.EOF
// before its first byte is a clean end of stream; a partial prefix or
// a length above max is an error.
func readFrameLen(br *bufio.Reader, max int) (int, error) {
	head, err := br.Peek(4)
	if err != nil {
		if len(head) > 0 && err == io.EOF {
			return 0, fmt.Errorf("serve: truncated frame length: %w", io.ErrUnexpectedEOF)
		}
		return 0, err // io.EOF: clean end of stream
	}
	n := int(binary.LittleEndian.Uint32(head))
	if n > max {
		return 0, fmt.Errorf("serve: frame of %d bytes exceeds limit %d", n, max)
	}
	_, _ = br.Discard(4) // cannot fail: Peek just buffered these bytes
	return n, nil
}

// readRequestFrame reads one request frame. The header is parsed in
// place in br's buffer; the payload is read into ar (see arenaSize for
// when that memory may be reused) — except a deadline frame's, which
// gets a slice of its own because its response may be written, and the
// arena released past it, while its ticket is still unresolved. A nil
// ar puts every payload on the heap.
//
// A frame too short for its header is consumed whole and reported as
// an *Error with CodeBadRequest: the stream is intact and the request
// can be answered. Any other error ends the stream.
func readRequestFrame(br *bufio.Reader, max int, ar *arena.Ring) (id uint64, deadlineMS uint32, payload []byte, err error) {
	n, err := readFrameLen(br, max)
	if err != nil {
		return 0, 0, nil, err
	}
	if n < reqHeaderLen {
		if _, err := br.Discard(n); err != nil {
			return 0, 0, nil, fmt.Errorf("serve: truncated frame: %w", err)
		}
		return 0, 0, nil, &Error{Code: CodeBadRequest, Msg: fmt.Sprintf("serve: request frame of %d bytes is shorter than its %d-byte header", n, reqHeaderLen)}
	}
	hdr, err := br.Peek(reqHeaderLen)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("serve: truncated frame: %w", err)
	}
	id = binary.LittleEndian.Uint64(hdr)
	deadlineMS = binary.LittleEndian.Uint32(hdr[8:])
	_, _ = br.Discard(reqHeaderLen)
	if n -= reqHeaderLen; ar != nil && deadlineMS == 0 {
		payload = ar.Alloc(n)
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("serve: truncated frame: %w", err)
	}
	return id, deadlineMS, payload, nil
}

// readResponseFrame reads one response frame, parsing the fixed header
// in place in br's buffer; msg is materialized only when non-empty (a
// CodeOK response carries none).
func readResponseFrame(br *bufio.Reader, max int) (id, age uint64, code Code, msg string, err error) {
	n, err := readFrameLen(br, max)
	if err != nil {
		return 0, 0, 0, "", err
	}
	if n < respHeaderLen {
		return 0, 0, 0, "", fmt.Errorf("serve: response frame of %d bytes is shorter than its %d-byte header", n, respHeaderLen)
	}
	hdr, err := br.Peek(respHeaderLen)
	if err != nil {
		return 0, 0, 0, "", fmt.Errorf("serve: truncated frame: %w", err)
	}
	id = binary.LittleEndian.Uint64(hdr)
	age = binary.LittleEndian.Uint64(hdr[8:])
	code = Code(hdr[16])
	_, _ = br.Discard(respHeaderLen)
	if n > respHeaderLen {
		text := make([]byte, n-respHeaderLen)
		if _, err := io.ReadFull(br, text); err != nil {
			return 0, 0, 0, "", fmt.Errorf("serve: truncated frame: %w", err)
		}
		msg = string(text)
	}
	return id, age, code, msg, nil
}

// frameBuffered reports whether br already holds a complete frame —
// the ingress batcher's lookahead: it only coalesces frames that
// arrived together, never blocking a submission to wait for more.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	head, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(head)
	return br.Buffered() >= 4+int(n)
}
