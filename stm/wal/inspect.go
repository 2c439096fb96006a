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
	// of a live log this is a snapshot: the writer may be appending.
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
// A Cursor is not safe for concurrent use. It holds at most one open
// segment file; Close releases it.
type Cursor struct {
	dir    string
	expect uint64 // age of the next record to return
	f      *os.File
	br     *bufio.Reader // reads f; kept across segment files
	opened uint64        // segment files opened over the cursor's life
	rolled bool          // the last file ended cleanly: the next starts at expect
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
		if c.f == nil {
			if err := c.open(); err != nil {
				return 0, nil, false, err
			}
		}
		// The record for c.expect is fully on disk (it is below the
		// caller's durability limit), so a clean EOF here can only mean
		// the segment ended at a roll boundary: move to the next file.
		a, p, rerr := readRecord(c.br, int64(maxPayload)+headerSize)
		if rerr == io.EOF {
			c.nextSegment()
			continue
		}
		if rerr != nil {
			return 0, nil, false, fmt.Errorf("wal: cursor at age %d: %w", c.expect, rerr)
		}
		if a != c.expect {
			return 0, nil, false, fmt.Errorf("wal: cursor expected age %d, segment holds %d", c.expect, a)
		}
		c.expect = a + 1
		return a, p, true, nil
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
		if c.f == nil {
			if err = c.open(); err != nil {
				break
			}
		}
		length, _, age, rerr := peekHeader(c.br, int64(maxPayload)+headerSize)
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

// open locates and opens the segment containing c.expect, skipping
// already-consumed records within it.
func (c *Cursor) open() error {
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
	c.f = f
	if c.br == nil {
		c.br = bufio.NewReaderSize(f, 1<<20)
	} else {
		c.br.Reset(f)
	}
	c.opened++
	// Skip records below the resume point (a cursor restarted mid-
	// segment, or positioned at an age inside an existing segment),
	// hopping from header to header.
	for at := segs[idx].age; at < c.expect; at++ {
		length, _, a, rerr := peekHeader(c.br, int64(maxPayload)+headerSize)
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
	}
	return nil
}

func (c *Cursor) closeFile() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
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
