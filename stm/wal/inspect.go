package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// This file is the log's public inspection surface: segment and
// checkpoint listings, the exported record-frame checksum and parser,
// and a cursor over the durable record stream (Recovery.Replay streams
// through one too). Shippers (stm/repl), backup tooling and debugging
// commands read the log through these instead of re-parsing directory
// names or record frames themselves. ParseFrame and the cursor decode
// through the same frame rule as Recover (record.go's decodeFrame), so
// the naming scheme and framing stay private details with one owner.

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
	size, age, err := decodeFrame(b, int64(len(b)), true)
	if err != nil {
		return 0, nil, nil, err
	}
	return age, b[headerSize:size:size], b[size:], nil
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
	expect uint64  // age of the next record to return
	sc     scanner // reads the open segment file, if any, at expect
	fresh  uint64  // sc holds whole records only below this age
	opened uint64  // segment files opened over the cursor's life
	rolled bool    // the last file ended cleanly: the next starts at expect
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
	frame, err := c.step(limit, true)
	if frame == nil {
		return 0, nil, false, err
	}
	return c.expect - 1, bytes.Clone(frame[headerSize:]), true, nil
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
	for start := len(dst); len(dst)-start < budget; n++ {
		frame, ferr := c.step(limit, false)
		if frame == nil {
			if n == 0 {
				err = ferr
			}
			break
		}
		dst = append(dst, frame...)
	}
	return dst, first, n, err
}

// step returns the frame of the record at expect, checking its
// checksum when verify is set, and moves the cursor past it; nil once
// expect reaches limit, or on an error. The frame aliases the cursor's
// buffer until the next read. After an error the cursor closes its
// file, to reopen at expect on the next call.
func (c *Cursor) step(limit uint64, verify bool) ([]byte, error) {
	for c.expect < limit {
		if err := c.ready(limit); err != nil {
			return nil, err
		}
		frame, age, err := c.sc.next(verify)
		if err == io.EOF || err == errZeroHeader {
			// The record for expect is fully on disk (it is below the
			// caller's durability limit), so the end of this file's
			// records can only be a roll boundary: on to the next file.
			c.nextSegment()
			continue
		}
		if err != nil {
			err = fmt.Errorf("wal: cursor at age %d: %w", c.expect, err)
		} else if age != c.expect {
			err = fmt.Errorf("wal: cursor expected age %d, segment holds %d", c.expect, age)
		}
		if err != nil {
			c.closeFile()
			return nil, err
		}
		c.expect++
		return frame, nil
	}
	return nil, nil
}

// ready positions the cursor to read the record at expect under
// limit: it opens the segment holding it, or re-reads from the file
// when the buffered bytes may predate the record.
func (c *Cursor) ready(limit uint64) error {
	if c.sc.f == nil {
		return c.open(limit)
	}
	if c.expect >= c.fresh {
		// Drop the buffer: read on from the file at expect, under limit.
		c.sc.reset(c.sc.f, c.sc.pos(), growing)
		c.fresh = limit
	}
	return nil
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
	return c.openAt(segs[idx].path, 0, segs[idx].age, limit)
}

// openAt opens the segment file at path and reads on from byte off,
// where the record for age from begins.
func (c *Cursor) openAt(path string, off int64, from, limit uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	c.sc.reset(f, off, growing)
	c.fresh = limit
	c.opened++
	// Skip records below the resume point (a cursor restarted mid-
	// segment, or positioned at an age inside an existing segment),
	// hopping from header to header.
	for at := from; at < c.expect; at++ {
		_, a, rerr := c.sc.next(false)
		if rerr == nil && a != at {
			rerr = fmt.Errorf("segment holds %d at %d", a, at)
		}
		if rerr != nil {
			c.closeFile()
			return fmt.Errorf("wal: cursor skipping to age %d: %w", c.expect, rerr)
		}
	}
	return nil
}

func (c *Cursor) closeFile() {
	if c.sc.f != nil {
		c.sc.f.Close()
		c.sc.f = nil
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
