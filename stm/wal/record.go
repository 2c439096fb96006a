package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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

// errTorn marks a read that ended in a torn or corrupt record; the
// wrapped detail is diagnostic only — recovery truncates at the
// record's start either way.
type tornError struct{ reason string }

func (e *tornError) Error() string { return "wal: torn record: " + e.reason }

// peekHeader parses the record header at br's read position, in place
// in br's buffer and without consuming it. remaining bounds how many
// bytes the segment still holds past the current offset, so a garbage
// length field from a torn tail is rejected before anything is sized
// by it. It returns io.EOF at a clean segment end, and a *tornError
// for a short header or an implausible length.
func peekHeader(br *bufio.Reader, remaining int64) (length, crc uint32, age uint64, err error) {
	hdr, err := br.Peek(headerSize)
	if err == io.EOF && len(hdr) == 0 {
		return 0, 0, 0, io.EOF
	}
	if err != nil {
		return 0, 0, 0, &tornError{reason: "short header"}
	}
	return decodeHeader(hdr, remaining)
}

// decodeHeader parses a record header and checks its length field
// against the remaining bytes that follow the header's start.
func decodeHeader(hdr []byte, remaining int64) (length, crc uint32, age uint64, err error) {
	length = binary.LittleEndian.Uint32(hdr[0:4])
	crc = binary.LittleEndian.Uint32(hdr[4:8])
	age = binary.LittleEndian.Uint64(hdr[8:16])
	if length > maxPayload || int64(length) > remaining-headerSize {
		return 0, 0, 0, &tornError{reason: fmt.Sprintf("implausible length %d", length)}
	}
	return length, crc, age, nil
}

// readRecord reads one record from br, verifying the frame; the
// payload is its only allocation. Errors are peekHeader's, plus a
// *tornError for a short payload or a checksum mismatch.
func readRecord(br *bufio.Reader, remaining int64) (age uint64, payload []byte, err error) {
	length, crc, age, err := peekHeader(br, remaining)
	if err != nil {
		return 0, nil, err
	}
	payload, err = readPayload(br, length, crc, age)
	return age, payload, err
}

// readPayload consumes the record whose header peekHeader just
// parsed and returns its verified payload.
func readPayload(br *bufio.Reader, length, crc uint32, age uint64) ([]byte, error) {
	_, _ = br.Discard(headerSize) // cannot fail: Peek just buffered these bytes
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, &tornError{reason: "short payload"}
	}
	if recordCRC(length, age, payload) != crc {
		return nil, &tornError{reason: "checksum mismatch"}
	}
	return payload, nil
}
