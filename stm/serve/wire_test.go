package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

func TestRequestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 4096)}
	var buf []byte
	for i, pl := range payloads {
		buf = appendRequestFrame(buf, uint64(i)<<32|7, uint32(i*250), pl)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i, pl := range payloads {
		if !frameBuffered(br) {
			// frameBuffered is best-effort lookahead; force a fill.
			_, _ = br.Peek(4)
		}
		id, dl, got, err := readRequestFrame(br, DefaultMaxFrame, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(i)<<32|7 || dl != uint32(i*250) || !bytes.Equal(got, pl) {
			t.Fatalf("frame %d: got id=%d dl=%d payload=%q", i, id, dl, got)
		}
	}
	if _, _, _, err := readRequestFrame(br, DefaultMaxFrame, nil); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	huge := appendRequestFrame(nil, 1, 0, make([]byte, 256))
	read := func(stream []byte, max int) error {
		_, _, _, err := readRequestFrame(bufio.NewReader(bytes.NewReader(stream)), max, nil)
		return err
	}
	if read(huge, 64) == nil {
		t.Fatal("oversized frame accepted")
	}
	// Cut inside the length prefix, inside the header, inside the payload.
	for _, keep := range []int{2, 4 + reqHeaderLen - 2, len(huge) - 10} {
		if err := read(huge[:keep], DefaultMaxFrame); err == nil || err == io.EOF {
			t.Fatalf("frame truncated to %d bytes: got %v", keep, err)
		}
	}
	// A frame shorter than its header is answerable: the stream stays
	// in step and the refusal is typed.
	short := binary.LittleEndian.AppendUint32(nil, 5)
	short = append(short, 1, 2, 3, 4, 5)
	br := bufio.NewReader(bytes.NewReader(append(short, huge...)))
	_, _, _, err := readRequestFrame(br, DefaultMaxFrame, nil)
	if bad, ok := err.(*Error); !ok || bad.Code != CodeBadRequest {
		t.Fatalf("short frame: got %v, want a CodeBadRequest *Error", err)
	}
	if id, _, pl, err := readRequestFrame(br, DefaultMaxFrame, nil); err != nil || id != 1 || len(pl) != 256 {
		t.Fatalf("frame after a short one: id=%d len=%d err=%v", id, len(pl), err)
	}
}

// TestWireErrorRoundTrip is the error-taxonomy contract: every engine
// error class travels as a distinct code, and the client-side
// reconstruction still matches the engine sentinels via errors.Is.
func TestWireErrorRoundTrip(t *testing.T) {
	fault := &stm.Fault{Age: 41, Value: "boom"}
	ftErr := &shard.FenceTimeoutError{Age: 9, Shard: 1, Timeout: time.Second}
	cases := []struct {
		name string
		err  error
		code Code
		is   []error // sentinels the reconstructed error must match
	}{
		{
			name: "canceled",
			err:  fmt.Errorf("%w before an age was assigned: %w", stm.ErrCanceled, context.Canceled),
			code: CodeCanceled,
			is:   []error{stm.ErrCanceled},
		},
		{
			name: "stopped",
			err:  &stm.Stopped{Fault: fault},
			code: CodeStopped,
			is:   []error{stm.ErrStopped},
		},
		{
			name: "fault",
			err:  fault,
			code: CodeFault,
		},
		{
			name: "closed",
			err:  stm.ErrClosed,
			code: CodeClosed,
			is:   []error{stm.ErrClosed},
		},
		{
			name: "durability",
			err:  &stm.DurabilityError{Err: errors.New("fsync: disk gone")},
			code: CodeDurability,
		},
		{
			name: "degraded",
			err:  &stm.DurabilityError{Err: fmt.Errorf("append: %w", wal.ErrDegraded)},
			code: CodeDegraded,
			is:   []error{wal.ErrDegraded},
		},
		{
			name: "fence-timeout-fault",
			err:  &stm.Fault{Age: 9, Value: ftErr},
			code: CodeFenceTimeout,
		},
		{
			name: "fence-timeout-stopped",
			err:  &stm.Stopped{Fault: &stm.Fault{Age: 9, Value: ftErr}},
			code: CodeFenceTimeout,
		},
		{
			name: "internal",
			err:  errors.New("something else"),
			code: CodeInternal,
		},
	}
	seen := make(map[Code]string)
	for _, tc := range cases {
		if got := CodeOf(tc.err); got != tc.code {
			t.Errorf("%s: CodeOf = %v, want %v", tc.name, got, tc.code)
		}
		// Distinctness across the five mandated classes (the two
		// fence-timeout shapes intentionally share a code).
		if prev, dup := seen[tc.code]; dup && tc.code != CodeFenceTimeout {
			t.Errorf("%s: code %v already used by %s", tc.name, tc.code, prev)
		}
		seen[tc.code] = tc.name

		// Over the wire and back.
		frame := appendResponseFrame(nil, 5, 77, CodeOf(tc.err), tc.err.Error())
		id, age, code, msg, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frame)), DefaultMaxFrame)
		if err != nil || id != 5 || age != 77 {
			t.Fatalf("%s: parse: id=%d age=%d err=%v", tc.name, id, age, err)
		}
		rerr := DecodeError(code, msg)
		if rerr == nil {
			t.Fatalf("%s: decoded to nil", tc.name)
		}
		if got := CodeOf(rerr); got != tc.code {
			t.Errorf("%s: code not idempotent across the wire: %v", tc.name, got)
		}
		for _, sentinel := range tc.is {
			if !errors.Is(rerr, sentinel) {
				t.Errorf("%s: reconstructed error does not match %v", tc.name, sentinel)
			}
		}
		// No false positives: a reconstructed canceled must not look
		// stopped, and vice versa.
		if tc.code != CodeCanceled && errors.Is(rerr, stm.ErrCanceled) {
			t.Errorf("%s: falsely matches ErrCanceled", tc.name)
		}
	}
	if DecodeError(CodeOK, "") != nil {
		t.Error("CodeOK must decode to nil")
	}
	if CodeOf(nil) != CodeOK {
		t.Error("CodeOf(nil) must be CodeOK")
	}
}
