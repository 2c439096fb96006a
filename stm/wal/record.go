package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// Record framing. Every record is self-checking so a torn tail is
// detectable at any cut point:
//
//	offset 0  u32 LE  payload length
//	offset 4  u32 LE  CRC-32C over (length, age, payload)
//	offset 8  u64 LE  age
//	offset 16 ...     payload
//
// The CRC covers the length and age fields too, so a bit flip in the
// header (not just the payload) fails the check, and a record whose
// length field was torn cannot masquerade as valid by chance.

const (
	headerSize = 16
	// maxPayload bounds a single record; a length beyond it is treated
	// as corruption rather than an attempt to allocate it.
	maxPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordCRC computes the checksum the frame stores. The twelve header
// bytes are folded in from the values themselves, a byte at a time: a
// stack array handed to crc32.Update escapes through its assembly
// path and would cost an allocation per record checked.
func recordCRC(length uint32, age uint64, payload []byte) uint32 {
	c := ^uint32(0)
	for s := 0; s < 32; s += 8 {
		c = crcTable[byte(c)^byte(length>>s)] ^ c>>8
	}
	for s := 0; s < 64; s += 8 {
		c = crcTable[byte(c)^byte(age>>s)] ^ c>>8
	}
	return crc32.Update(^c, crcTable, payload)
}

// appendRecord appends the framed record to buf and returns the
// extended slice.
func appendRecord(buf []byte, age uint64, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, recordCRC(uint32(len(payload)), age, payload))
	buf = binary.LittleEndian.AppendUint64(buf, age)
	return append(buf, payload...)
}

// recordSize returns the framed size of a payload.
func recordSize(payload []byte) int64 { return headerSize + int64(len(payload)) }

// tornError marks a read that ended in a torn or corrupt record; the
// reason is diagnostic only — recovery truncates at the record's start
// either way.
type tornError struct{ reason string }

func (e *tornError) Error() string { return "wal: torn record: " + e.reason }

// How a frame read ends when it does not end on a frame that passes:
// on a header of zeros (the writer's padding, or a hole), or torn.
// Readers of a file add io.EOF, no bytes at all: the clean end.
var (
	errZeroHeader   = &tornError{reason: "zero header"}
	errShortHeader  = &tornError{reason: "short header"}
	errBadLength    = &tornError{reason: "implausible length"}
	errShortPayload = &tornError{reason: "short payload"}
	errBadChecksum  = &tornError{reason: "checksum mismatch"}
)

// decodeFrame is the log's one frame rule. b holds the bytes from a
// frame's start on, and room bounds how many the source can hold from
// there, so a garbage length from a torn tail is rejected before
// anything is sized by it. It returns the frame's size in bytes (the
// header's, until the length is known) and its age. When b ends inside
// the frame, the error is errShortHeader or errShortPayload and size
// says how many bytes a whole frame needs: a reader that can fetch
// more asks again with them. verify=false skips the checksum.
func decodeFrame(b []byte, room int64, verify bool) (size int, age uint64, err error) {
	if len(b) < headerSize {
		return headerSize, 0, errShortHeader
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	age = binary.LittleEndian.Uint64(b[8:16])
	switch size = headerSize + int(length); {
	case length == 0 && crc == 0 && age == 0:
		return headerSize, 0, errZeroHeader
	case length > maxPayload || int64(length) > room-headerSize:
		return headerSize, age, errBadLength
	case len(b) < size:
		return size, age, errShortPayload
	case verify && recordCRC(length, age, b[headerSize:size]) != crc:
		return size, age, errBadChecksum
	}
	return size, age, nil
}

// scanner reads a segment file frame by frame through decodeFrame,
// into a buffer it owns and grows only for a frame larger than it.
// Reads start small after a reset and double up to maxRead: at a live
// log's tail all but the newest records of a read are zero padding.
type scanner struct {
	f    *os.File
	end  int64  // the file's size, or growing
	buf  []byte // buf[r:w] are the file's bytes from pos() on
	r, w int
	off  int64 // the file offset of buf[w]
	n    int   // most bytes the next read asks for
	eof  bool  // a read met the end of the file: no more bytes until a reset
}

const (
	firstRead = 4 << 10
	maxRead   = 1 << 20
	// growing is the end of a file a writer may still be appending to.
	growing = math.MaxInt64
)

// reset points the scanner at offset off of f, dropping what it holds.
func (s *scanner) reset(f *os.File, off, end int64) {
	if s.buf == nil {
		s.buf = make([]byte, maxRead)
	}
	s.f, s.end, s.off = f, end, off
	s.r, s.w, s.n, s.eof = 0, 0, firstRead, false
}

// pos returns the file offset of the next frame.
func (s *scanner) pos() int64 { return s.off - int64(s.w-s.r) }

// next decodes the frame at pos and, when it passes, steps past it.
// frame aliases the scanner's buffer until the next call. err is
// io.EOF at the file's end, one of decodeFrame's, or an I/O failure.
func (s *scanner) next(verify bool) (frame []byte, age uint64, err error) {
	for {
		b := s.buf[s.r:s.w]
		size, age, err := decodeFrame(b, s.end-s.pos(), verify)
		switch {
		case size > len(b) && !s.eof:
			if err := s.fill(size); err != nil {
				return nil, 0, err
			}
			continue
		case len(b) == 0:
			return nil, 0, io.EOF
		case err == nil:
			s.r += size
			return b[:size], age, nil
		}
		return nil, age, err
	}
}

// fill reads until the buffer holds want bytes from pos on, or the
// file ends.
func (s *scanner) fill(want int) error {
	for s.w-s.r < want && !s.eof {
		if s.w == len(s.buf) {
			s.w, s.r = copy(s.buf, s.buf[s.r:s.w]), 0
			if s.w == len(s.buf) {
				s.buf = slices.Grow(s.buf, len(s.buf))[:2*len(s.buf)]
			}
		}
		n, err := s.f.ReadAt(s.buf[s.w:min(len(s.buf), s.w+s.n)], s.off)
		s.w += n
		s.off += int64(n)
		s.n = min(2*s.n, maxRead)
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			return err
		}
	}
	return nil
}
