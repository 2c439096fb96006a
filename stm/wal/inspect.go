package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// This file is the log's public inspection surface: segment and
// checkpoint listings, the exported record-frame checksum and parser,
// and a cursor over the durable record stream. Shippers
// (stm/repl), backup tooling and debugging commands read the log
// through these instead of re-parsing directory names or record
// frames themselves, so the naming scheme and framing stay private
// implementation details with one owner.

// SegmentInfo describes one on-disk segment file.
type SegmentInfo struct {
	// FirstAge is the age of the segment's first record (the name
	// encodes it: %016x.wal).
	FirstAge uint64
	// Path is the segment file's full path.
	Path string
	// Size is the file's current size in bytes. For the tail segment
	// of a live log this is a snapshot: the writer may be appending,
	// and the size includes the zero padding the writer keeps ahead of
	// its records (see the package doc's Zero-ahead), so it says where
	// the file ends, not where the log does. A finished segment's size
	// is its records'.
	Size int64
}

// Segments lists dir's segment files in age order. Files that do not
// match the segment naming scheme are ignored; a missing directory
// yields an empty listing. On a live log the tail segment's Size is a
// point-in-time snapshot.
func Segments(dir string) ([]SegmentInfo, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(segs))
	for _, s := range segs {
		st, err := os.Stat(s.path)
		if err != nil {
			return nil, err
		}
		out = append(out, SegmentInfo{FirstAge: s.age, Path: s.path, Size: st.Size()})
	}
	return out, nil
}

// Checkpoints lists the ages of dir's checkpoint snapshot files,
// sorted ascending. The committed checkpoint (the manifest's, when it
// verifies) is typically the last; use ReadCheckpoint to load one.
func Checkpoints(dir string) ([]uint64, error) {
	return listCheckpoints(dir)
}

// ReadCheckpoint loads and verifies the checkpoint snapshot at age
// from dir, returning its application state. A torn or missing
// snapshot is an error (recovery's fallback-to-older policy lives in
// Recover; this is the raw accessor).
func ReadCheckpoint(dir string, age uint64) ([]byte, error) {
	return readCheckpointFile(checkpointPath(dir, age), age)
}

// RecordCRC returns the CRC-32C the log's record frame stores for
// (age, payload) — covering the length and age fields as well as the
// payload, exactly the torn-tail rule's checksum. Shippers reuse it
// so a byte shipped off-box is validated by the same rule that
// validates it on disk.
func RecordCRC(age uint64, payload []byte) uint32 {
	return recordCRC(uint32(len(payload)), age, payload)
}

// FrameSize returns the framed on-disk size of a record payload
// (header + payload bytes).
func FrameSize(payload []byte) int64 { return recordSize(payload) }

// ParseFrame splits the first record frame off b — raw log bytes, as
// Cursor.AppendFrames returns them — and verifies it by the torn-tail
// rule: a whole header, a length that fits, and the CRC-32C over
// (length, age, payload). payload and rest alias b; nothing is
// allocated for a frame that passes. Checking the age against the one
// expected is the caller's.
func ParseFrame(b []byte) (age uint64, payload, rest []byte, err error) {
	if len(b) < headerSize {
		return 0, nil, nil, &tornError{reason: "short header"}
	}
	length, crc, age, err := decodeHeader(b, int64(len(b)))
	if err != nil {
		return 0, nil, nil, err
	}
	end := headerSize + int(length)
	payload, rest = b[headerSize:end:end], b[end:]
	if recordCRC(length, age, payload) != crc {
		return 0, nil, nil, &tornError{reason: "checksum mismatch"}
	}
	return age, payload, rest, nil
}

// ErrCompacted is returned by NewCursor and Cursor.Next when the
// requested age is below the log's oldest retained record — a
// checkpoint truncated the history. The reader must restart from a
// checkpoint at or above the requested age instead.
var ErrCompacted = errors.New("wal: records compacted below the requested age")

// Cursor reads records from a log directory in age order, starting at
// a chosen age, tolerating a live Writer appending ahead of it: one at
// a time and CRC-verified (Next), or as runs of raw frames for a
// reader that verifies them itself (AppendFrames). Neither reads at or
// past the caller-supplied limit (pass Writer.Durable() to observe
// only bytes a crash cannot take back), which is also what makes
// reading the live tail safe: every byte below the durability frontier
// was fully written to the segment file before the frontier advanced.
//
// The live segment's file runs on past its records in zeros (the
// writer's zero-ahead), so a read can buffer bytes that are still
// zeros — or a record only partly copied in — and that hold a record
// later. The cursor therefore trusts its buffer only for records below
// the limit it was filled under: the first record at or past that
// limit is re-read from the file at its offset. A header of zeros that
// is still there is the end of what the segment holds, as the end of
// the file is.
//
// A Cursor is not safe for concurrent use. It holds at most one open
// segment file; Close releases it.
type Cursor struct {
	dir    string
	expect uint64        // age of the next record to return
	src    segReader     // the open segment file, if any
	br     *bufio.Reader // reads src; kept across segment files
	off    int64         // file offset of the record at expect
	fresh  uint64        // br holds whole records only below this age
	opened uint64        // segment files opened over the cursor's life
	rolled bool          // the last file ended cleanly: the next starts at expect
}

// segReader reads a segment file from off on: the offset br's buffer
// ends at. After a refill it
// starts small and doubles per read: at the live tail all but the
// newest records of a read are zero padding.
type segReader struct {
	f   *os.File
	off int64
	n   int // most bytes the next read returns
}

const firstRead = 4 << 10

func (r *segReader) Read(p []byte) (int, error) {
	p = p[:min(len(p), r.n)]
	r.n = min(2*r.n, 1<<20)
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

// NewCursor positions a cursor at age from in dir's log. The first
// Next returns the record at exactly from; ErrCompacted if the log no
// longer retains it.
func NewCursor(dir string, from uint64) (*Cursor, error) {
	c := &Cursor{dir: dir, expect: from}
	return c, nil
}

// Segments returns how many segment files the cursor has opened —
// the shipped-segment count for a shipper driving it.
func (c *Cursor) Segments() uint64 { return c.opened }

// Next returns the next record if its age is below limit, or
// ok=false when the cursor has caught up (the next record is at or
// beyond limit). The returned payload is freshly allocated and owned
// by the caller. Errors are genuine log corruption or I/O failures —
// a record below the durability frontier that fails its CRC is not a
// torn tail, it is a damaged log — or ErrCompacted when the log was
// truncated under the cursor.
func (c *Cursor) Next(limit uint64) (age uint64, payload []byte, ok bool, err error) {
	for {
		if c.expect >= limit {
			return 0, nil, false, nil
		}
		if err := c.ready(limit); err != nil {
			return 0, nil, false, err
		}
		// The record for c.expect is fully on disk (it is below the
		// caller's durability limit), so a clean end here can only mean
		// the segment ended at a roll boundary: move to the next file.
		length, crc, a, rerr := c.peek()
		if rerr == io.EOF {
			c.nextSegment()
			continue
		}
		if rerr == nil {
			payload, rerr = readPayload(c.br, length, crc, a)
		}
		if rerr != nil {
			return 0, nil, false, fmt.Errorf("wal: cursor at age %d: %w", c.expect, rerr)
		}
		if a != c.expect {
			return 0, nil, false, fmt.Errorf("wal: cursor expected age %d, segment holds %d", c.expect, a)
		}
		c.expect = a + 1
		c.off += headerSize + int64(length)
		return a, payload, true, nil
	}
}

// AppendFrames appends to dst the raw frames — header and payload,
// byte for byte what the segment files hold — of the records from the
// cursor's position up to limit, and stops early once it has appended
// budget bytes (so one call appends at least one record, however
// large). It returns the extended slice, the age of the first record
// appended and how many there were; n == 0 means the cursor has caught
// up with limit.
//
// It hops from header to header and checks only that the ages run on
// contiguously: no checksum is computed and nothing is allocated per
// record. The frames carry their own CRCs, so whoever consumes the
// bytes (ParseFrame) is the one check between the disk and the
// engine. An error — I/O failure, a header that does not fit the
// chain, ErrCompacted — is reported by the call that could append
// nothing; a call that met one after appending returns what it has.
func (c *Cursor) AppendFrames(dst []byte, limit uint64, budget int) (out []byte, first uint64, n int, err error) {
	first = c.expect
	for start := len(dst); c.expect < limit && len(dst)-start < budget; {
		if err = c.ready(limit); err != nil {
			break
		}
		length, _, age, rerr := c.peek()
		if rerr == io.EOF {
			c.nextSegment()
			continue
		}
		if rerr != nil {
			err = fmt.Errorf("wal: cursor at age %d: %w", c.expect, rerr)
			break
		}
		if age != c.expect {
			err = fmt.Errorf("wal: cursor expected age %d, segment holds %d", c.expect, age)
			break
		}
		at := len(dst)
		dst = append(dst, make([]byte, headerSize+int(length))...)
		if _, rerr := io.ReadFull(c.br, dst[at:]); rerr != nil {
			dst = dst[:at]
			err = fmt.Errorf("wal: cursor at age %d: %w", c.expect, &tornError{reason: "short payload"})
			break
		}
		c.expect++
		c.off += headerSize + int64(length)
		n++
	}
	if err != nil {
		// The reader may sit mid-record; the next call reopens at expect.
		c.closeFile()
		if n == 0 {
			return dst, first, 0, err
		}
	}
	return dst, first, n, nil
}

// ready positions the cursor to read the record at expect under
// limit: it opens the segment holding it, or re-reads from the file
// when the buffered bytes may predate the record.
func (c *Cursor) ready(limit uint64) error {
	if c.src.f == nil {
		return c.open(limit)
	}
	if c.expect >= c.fresh {
		c.refill(limit)
	}
	return nil
}

// refill drops the buffer; reading goes on from the file at the
// cursor's offset, under limit.
func (c *Cursor) refill(limit uint64) {
	c.src.off, c.src.n = c.off, firstRead
	c.br.Reset(&c.src)
	c.fresh = limit
}

// peek parses the header at the cursor's position. A header of zeros
// is the writer's padding past the last record: for a reader, the end
// of the segment, as much as io.EOF is.
func (c *Cursor) peek() (length, crc uint32, age uint64, err error) {
	length, crc, age, err = peekHeader(c.br, int64(maxPayload)+headerSize)
	if err == nil && length == 0 && crc == 0 && age == 0 {
		err = io.EOF
	}
	return length, crc, age, err
}

// open locates and opens the segment containing c.expect, skipping
// already-consumed records within it.
func (c *Cursor) open(limit uint64) error {
	segs, err := listSegments(c.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 || segs[0].age > c.expect {
		return fmt.Errorf("%w (want %d)", ErrCompacted, c.expect)
	}
	idx := 0
	for i, s := range segs {
		if s.age > c.expect {
			break
		}
		idx = i
	}
	if c.rolled && segs[idx].age != c.expect {
		// The file before ended cleanly and none starts where it left
		// off: the limit was beyond what the log holds.
		return fmt.Errorf("wal: cursor at age %d: the log ends below the limit", c.expect)
	}
	c.rolled = false
	f, err := os.Open(segs[idx].path)
	if err != nil {
		return err
	}
	c.src.f, c.off = f, 0
	if c.br == nil {
		c.br = bufio.NewReaderSize(&c.src, 1<<20)
	}
	c.refill(limit)
	c.opened++
	// Skip records below the resume point (a cursor restarted mid-
	// segment, or positioned at an age inside an existing segment),
	// hopping from header to header.
	for at := segs[idx].age; at < c.expect; at++ {
		length, _, a, rerr := c.peek()
		if rerr == nil {
			if _, derr := c.br.Discard(headerSize + int(length)); derr != nil {
				rerr = &tornError{reason: "short payload"}
			}
		}
		if rerr != nil {
			c.closeFile()
			return fmt.Errorf("wal: cursor skipping to age %d: %v", c.expect, rerr)
		}
		if a != at {
			c.closeFile()
			return fmt.Errorf("wal: cursor skipping to age %d: segment holds %d at %d", c.expect, a, at)
		}
		c.off += headerSize + int64(length)
	}
	return nil
}

func (c *Cursor) closeFile() {
	if c.src.f != nil {
		c.src.f.Close()
		c.src.f = nil
	}
}

// nextSegment leaves a file that ended cleanly below the limit — at a
// roll boundary, then: the record after it opens the next file.
func (c *Cursor) nextSegment() {
	c.closeFile()
	c.rolled = true
}

// Close releases the cursor's open segment file, if any.
func (c *Cursor) Close() { c.closeFile() }
