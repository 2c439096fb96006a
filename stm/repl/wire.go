// Package repl replicates an ordered-commit log to hot-standby
// followers. It is the process topology PR 4's recovery theorem makes
// nearly free: the WAL's record stream — encoded transaction *inputs*
// in predefined age order — is the complete state of the engine, so a
// follower is simply a recovery replay that never ends. The leader's
// Shipper streams durable log bytes to each follower; the Follower
// validates them with the WAL's own frame rule, appends them to its
// own local log (by replaying them through a live pipeline whose
// writer does the appending at commit), and serves reads at its apply
// frontier. Promotion is recovery's restart path run on a live
// process: stop the stream, drain the pipeline, start accepting
// writes.
//
// # Shipping protocol
//
// A follower issues GET /repl/stream?from=N against the leader's
// listener, asking to upgrade the HTTP/1.1 connection ("Connection:
// Upgrade", "Upgrade: ostm-repl") the way the submit wire does. N is
// the age of the first record the follower lacks. After its "101
// Switching Protocols" the leader writes a frame stream on the raw TCP
// connection, all integers little-endian:
//
//	u32 len | u8 type | u64 age | u64 aux | u32 crc | payload (len-21 bytes)
//
// Frame types:
//
//	hello (0)      first frame of every stream. age = the leader's
//	               durability frontier, aux = its cumulative framed
//	               log bytes. No payload.
//	group (1)      a run of WAL records: payload is the records' frames
//	               exactly as the leader's segment files hold them
//	               (u32 length | u32 CRC-32C | u64 age | payload, back
//	               to back), age the first record's age, aux how many
//	               there are; crc is unused (0) — every record carries
//	               its own. Groups arrive in contiguous age order
//	               starting at N; a run is whatever became durable
//	               since the last one, cut at ShipperOptions.FlushBytes.
//	heartbeat (2)  age = the leader's durability frontier, aux = its
//	               cumulative framed bytes. Sent whenever the stream
//	               catches up to the frontier and on an idle timer, so
//	               a follower can measure lag while caught up.
//	snapshot (3)   checkpoint bootstrap: payload is the leader's
//	               checkpoint state at age, crc its wal.RecordCRC.
//	               Sent (right after hello) only when the leader has
//	               compacted the records below N away; records resume
//	               at age. A follower accepts it only before its
//	               engine boots — mid-life it is fatal, because a
//	               running pipeline's state cannot be replaced.
//
// Only durable, contiguous-age bytes are ever shipped: the shipper
// wakes on the group-commit completion tap and reads strictly below
// the durability frontier, so a leader crash can never retract a
// shipped record ("no phantom durables" holds across the wire by
// construction).
//
// # Who verifies what
//
// A record is checksummed when the leader appends it, and that CRC
// travels with it from then on. The shipper does not re-check it: it
// copies whole frames below its own durability frontier from the
// segment file into the stream, hopping from header to header
// (wal.Cursor.AppendFrames), and vouches only that the ages run on
// contiguously. The follower's check is the one that stops a damaged
// record, whether the disk, the leader's memory or the network damaged
// it: it walks each group with the WAL's own frame rule
// (wal.ParseFrame: whole header, fitting length, CRC-32C over length,
// age and payload) plus the contiguous expected age — exactly what
// recovery applies to disk bytes — and applies a record only once it
// has passed. The first record that fails ends the stream for good
// (Follower.Err names its age): every record before it in the group
// has been applied, nothing at or after it is. The follower's own log
// then checksums the payload again as it appends it.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/orderedstm/ostm/internal/arena"
)

// protocol is the Upgrade token of a replication stream.
const protocol = "ostm-repl"

const (
	frameHello     byte = 0
	frameGroup     byte = 1
	frameHeartbeat byte = 2
	frameSnapshot  byte = 3

	frameHeaderLen = 21 // u8 type + u64 age + u64 aux + u32 crc
	frameTypeOff   = 4  // offsets of a frame's fields from its start
	frameAgeOff    = 5
	frameAuxOff    = 13
	frameCRCOff    = 21

	// DefaultMaxFrame bounds accepted stream frames. Snapshot frames
	// carry whole checkpoint states, so the ceiling is far above the
	// submit wire's.
	DefaultMaxFrame = 1 << 28
)

func frameName(t byte) string {
	switch t {
	case frameHello:
		return "hello"
	case frameGroup:
		return "group"
	case frameHeartbeat:
		return "heartbeat"
	case frameSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("type(%d)", t)
}

// appendFrame appends one stream frame to dst.
func appendFrame(dst []byte, typ byte, age, aux uint64, crc uint32, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(frameHeaderLen+len(payload)))
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint64(dst, age)
	dst = binary.LittleEndian.AppendUint64(dst, aux)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// beginGroup appends a group frame's header with its length, first age
// and count still to come: the caller appends the records' raw frames
// behind it and closes it with endGroup.
func beginGroup(dst []byte) []byte {
	return appendFrame(dst, frameGroup, 0, 0, 0, nil)
}

// endGroup fills in the header of the group frame that starts at
// dst[start:] and runs to the end of dst.
func endGroup(dst []byte, start int, first uint64, count int) {
	fr := dst[start:]
	binary.LittleEndian.PutUint32(fr, uint32(len(fr)-4))
	binary.LittleEndian.PutUint64(fr[frameAgeOff:], first)
	binary.LittleEndian.PutUint64(fr[frameAuxOff:], uint64(count))
}

// frame is one decoded stream frame. A group's payload lives in the
// follower's ring (see Follower.ring for when that memory is reused);
// a snapshot's is a fresh allocation the consumer owns.
type frame struct {
	typ     byte
	age     uint64
	aux     uint64
	crc     uint32
	payload []byte
}

// readStreamFrame reads one frame, parsing the header in place in br's
// buffer; a group's payload is read into ring (nil puts it on the
// heap, like every other payload). io.EOF before the first length byte
// is a clean end of stream; anything truncated is an error.
func readStreamFrame(br *bufio.Reader, max int, ring *arena.Ring) (frame, error) {
	lenb, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(lenb) > 0 {
			return frame{}, fmt.Errorf("repl: truncated frame length: %w", io.ErrUnexpectedEOF)
		}
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenb)
	if int64(n) > int64(max) {
		return frame{}, fmt.Errorf("repl: frame of %d bytes exceeds limit %d", n, max)
	}
	if n < frameHeaderLen {
		return frame{}, fmt.Errorf("repl: frame of %d bytes is shorter than its %d-byte header", n, frameHeaderLen)
	}
	hdr, err := br.Peek(4 + frameHeaderLen)
	if err != nil {
		return frame{}, fmt.Errorf("repl: truncated frame: %w", err)
	}
	fr := frame{
		typ: hdr[frameTypeOff],
		age: binary.LittleEndian.Uint64(hdr[frameAgeOff:]),
		aux: binary.LittleEndian.Uint64(hdr[frameAuxOff:]),
		crc: binary.LittleEndian.Uint32(hdr[frameCRCOff:]),
	}
	_, _ = br.Discard(4 + frameHeaderLen) // cannot fail: Peek just buffered these bytes
	if n -= frameHeaderLen; n == 0 {
		return fr, nil
	}
	if fr.typ == frameGroup && ring != nil {
		fr.payload = ring.Alloc(int(n))
	} else {
		fr.payload = make([]byte, n)
	}
	if _, err := io.ReadFull(br, fr.payload); err != nil {
		return frame{}, fmt.Errorf("repl: truncated frame: %w", err)
	}
	return fr, nil
}
