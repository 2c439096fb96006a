package repl

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/orderedstm/ostm/internal/arena"
)

// TestFrameRoundTrip encodes every frame type and reads it back.
func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{typ: frameHello, age: 42, aux: 9000},
		{typ: frameGroup, age: 7, aux: 1, payload: []byte("raw log frames")},
		{typ: frameHeartbeat, age: 1 << 40, aux: 1 << 50},
		{typ: frameSnapshot, age: 600, aux: 3, crc: 1, payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var buf []byte
	for _, c := range cases {
		buf = appendFrame(buf, c.typ, c.age, c.aux, c.crc, c.payload)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range cases {
		got, err := readStreamFrame(br, DefaultMaxFrame, nil)
		if err != nil {
			t.Fatalf("frame %d (%s): %v", i, frameName(want.typ), err)
		}
		if got.typ != want.typ || got.age != want.age || got.aux != want.aux || got.crc != want.crc {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.payload, want.payload) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got.payload), len(want.payload))
		}
	}
	if _, err := readStreamFrame(br, DefaultMaxFrame, nil); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestGroupFrameIntoRing: a group built in place (header first, body
// appended behind it, header filled in last) reads back as written,
// its body into the ring; every other payload stays off the ring.
func TestGroupFrameIntoRing(t *testing.T) {
	body := bytes.Repeat([]byte("raw log frames"), 50)
	buf := appendFrame(nil, frameHello, 1, 2, 0, nil)
	start := len(buf)
	buf = append(beginGroup(buf), body...)
	endGroup(buf, start, 77, 50)
	buf = appendFrame(buf, frameSnapshot, 9, 0, 3, []byte("state"))

	ring := arena.New(4 << 10)
	br := bufio.NewReader(bytes.NewReader(buf))
	if fr, err := readStreamFrame(br, DefaultMaxFrame, ring); err != nil || fr.typ != frameHello || ring.Mark() != 0 {
		t.Fatalf("hello: %+v, err %v, ring mark %d", fr, err, ring.Mark())
	}
	fr, err := readStreamFrame(br, DefaultMaxFrame, ring)
	if err != nil || fr.typ != frameGroup || fr.age != 77 || fr.aux != 50 || !bytes.Equal(fr.payload, body) {
		t.Fatalf("group: type %s age %d aux %d, %d payload bytes, err %v", frameName(fr.typ), fr.age, fr.aux, len(fr.payload), err)
	}
	if ring.Mark() != uint64(len(body)) {
		t.Fatalf("ring carved %d bytes for a %d-byte group", ring.Mark(), len(body))
	}
	if fr, err := readStreamFrame(br, DefaultMaxFrame, ring); err != nil || fr.typ != frameSnapshot || string(fr.payload) != "state" || ring.Mark() != uint64(len(body)) {
		t.Fatalf("snapshot: %+v, err %v, ring mark %d", fr, err, ring.Mark())
	}
}

// TestFrameErrors exercises the reader's rejection paths: truncation
// mid-length, truncation mid-body, an over-limit frame, and a frame
// shorter than its own header.
func TestFrameErrors(t *testing.T) {
	whole := appendFrame(nil, frameGroup, 3, 1, 0, []byte("payload"))

	for cut := 1; cut < len(whole); cut++ {
		br := bufio.NewReader(bytes.NewReader(whole[:cut]))
		if _, err := readStreamFrame(br, DefaultMaxFrame, nil); err == nil || err == io.EOF {
			t.Fatalf("cut at %d: got %v, want truncation error", cut, err)
		}
	}

	br := bufio.NewReader(bytes.NewReader(whole))
	if _, err := readStreamFrame(br, 8, nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("over-limit frame: %v", err)
	}

	short := []byte{4, 0, 0, 0, 1, 2, 3, 4} // len=4 < frameHeaderLen
	br = bufio.NewReader(bytes.NewReader(short))
	if _, err := readStreamFrame(br, DefaultMaxFrame, nil); err == nil || !strings.Contains(err.Error(), "shorter than") {
		t.Fatalf("short frame: %v", err)
	}

	if _, err := readStreamFrame(bufio.NewReader(bytes.NewReader(nil)), DefaultMaxFrame, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}
