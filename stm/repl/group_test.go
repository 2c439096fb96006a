package repl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/wal"
)

// The tests in this file drive one side of the stream against a stand-
// in for the other: a follower fed hand-made frames, and the real
// shipper read frame by frame.

func groupPayload(age uint64) []byte {
	return []byte(fmt.Sprintf("record-%04d", age))
}

// serveH2C serves h on a loopback listener speaking the cleartext
// HTTP/2 the follower dials, and returns its address.
func serveH2C(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h, Protocols: new(http.Protocols)}
	srv.Protocols.SetUnencryptedHTTP2(true)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// leaderLog is a closed-loop leader log: fill appends and syncs.
type leaderLog struct {
	t *testing.T
	w *wal.Writer
}

func newLeaderLog(t *testing.T, opts wal.Options) *leaderLog {
	t.Helper()
	w, err := wal.Create(t.TempDir(), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return &leaderLog{t, w}
}

func (l *leaderLog) fill(to uint64) {
	l.t.Helper()
	for age := l.w.Next(); age < to; age++ {
		if err := l.w.Append(age, groupPayload(age)); err != nil {
			l.t.Fatal(err)
		}
	}
	if err := l.w.Sync(); err != nil {
		l.t.Fatal(err)
	}
}

// rawFrames returns the log's frames for ages [from, to) as the
// shipper would copy them.
func (l *leaderLog) rawFrames(from, to uint64) []byte {
	l.t.Helper()
	cur, _ := wal.NewCursor(l.w.Dir(), from)
	defer cur.Close()
	raw, first, n, err := cur.AppendFrames(nil, to, 1<<30)
	if err != nil || first != from || uint64(n) != to-from {
		l.t.Fatalf("raw frames [%d,%d): first %d, n %d, err %v", from, to, first, n, err)
	}
	return raw
}

// group frames raw as a group claiming count records from first.
func group(first uint64, count int, raw []byte) []byte {
	buf := append(beginGroup(nil), raw...)
	endGroup(buf, 0, first, count)
	return buf
}

// applied is what a stub runtime was handed, in order.
type applied struct {
	mu       sync.Mutex
	payloads [][]byte
}

func (a *applied) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.payloads)
}

// stubBoot is a FollowerConfig.Boot whose runtime is the smallest
// thing that honours the contract: Submit notes the payload in got and
// appends it to the local log, as a pipeline would at commit.
func stubBoot(t *testing.T, got *applied, seen *Boot) func(Boot) (Runtime, error) {
	return func(b Boot) (Runtime, error) {
		if seen != nil {
			*seen = b
		}
		t.Cleanup(func() { b.Writer.Close() })
		return Runtime{
			Submit: func(pl []byte) error {
				got.mu.Lock()
				got.payloads = append(got.payloads, append([]byte(nil), pl...))
				got.mu.Unlock()
				return b.Writer.Append(b.Writer.Next(), pl)
			},
			Drain: b.Writer.Sync,
		}, nil
	}
}

// startStubFollower starts a follower of leader over a stubBoot.
func startStubFollower(t *testing.T, leader string, reg *obs.Registry) (*Follower, *applied) {
	t.Helper()
	got := &applied{}
	f, err := StartFollower(FollowerConfig{
		Dir:              t.TempDir(),
		Leader:           leader,
		Obs:              reg,
		ReconnectBackoff: 10 * time.Millisecond,
		Boot:             stubBoot(t, got, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, got
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupFrameRejections feeds a follower one good group and then a
// damaged one. In every case the records before the damage are
// applied, in order; the follower stops for good with an error naming
// the age it stopped at; and nothing at or after that age is applied,
// though good records follow it in the stream.
func TestGroupFrameRejections(t *testing.T) {
	l := newLeaderLog(t, wal.Options{})
	l.fill(30)
	frame := len(l.rawFrames(0, 1))
	cases := []struct {
		name    string
		bad     []byte // the frame after group [0,10)
		applied int    // records applied in all
		errHas  string
	}{{
		name:    "flipped bit in a middle record",
		bad:     flip(group(10, 10, l.rawFrames(10, 20)), 4+frameHeaderLen+4*frame+frame-1),
		applied: 14,
		errHas:  "record 14",
	}, {
		name:    "flipped bit in a record's age",
		bad:     flip(group(10, 10, l.rawFrames(10, 20)), 4+frameHeaderLen+2*frame+8),
		applied: 12,
		errHas:  "record 12",
	}, {
		name:    "group truncated inside a record",
		bad:     group(10, 10, l.rawFrames(10, 20)[:9*frame+frame/2]),
		applied: 19,
		errHas:  "record 19",
	}, {
		name:    "group truncated inside a header",
		bad:     group(10, 10, l.rawFrames(10, 20)[:3*frame+5]),
		applied: 13,
		errHas:  "record 13",
	}, {
		name:    "age gap inside a group",
		bad:     group(10, 9, append(l.rawFrames(10, 15), l.rawFrames(16, 20)...)),
		applied: 15,
		errHas:  "got 16, want 15",
	}, {
		name:    "group that starts past the frontier",
		bad:     group(11, 9, l.rawFrames(11, 20)),
		applied: 10,
		errHas:  "got 11, want 10",
	}, {
		name:    "group that replays a record",
		bad:     group(9, 11, l.rawFrames(9, 20)),
		applied: 10,
		errHas:  "got 9, want 10",
	}, {
		name:    "header counts a record the body lacks",
		bad:     group(10, 11, l.rawFrames(10, 20)),
		applied: 20,
		errHas:  "holds 10 records, its header says 11",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stream []byte
			stream = appendFrame(stream, frameHello, 30, 0, 0, nil)
			stream = append(stream, group(0, 10, l.rawFrames(0, 10))...)
			stream = append(stream, tc.bad...)
			stream = append(stream, group(20, 10, l.rawFrames(20, 30))...)
			leader := serveH2C(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(stream)
				http.NewResponseController(w).Flush()
				<-r.Context().Done()
			}))
			f, got := startStubFollower(t, leader, nil)
			eventually(t, "the follower to stop", func() bool { return f.Err() != nil })
			if err := f.Err(); !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("Err() = %q, want it to name %q", err, tc.errHas)
			}
			if got.count() != tc.applied || f.Frontier() != uint64(tc.applied) {
				t.Fatalf("%d records applied, frontier %d; want %d", got.count(), f.Frontier(), tc.applied)
			}
			for age, pl := range got.payloads {
				if !bytes.Equal(pl, groupPayload(uint64(age))) {
					t.Fatalf("record %d applied as %q", age, pl)
				}
			}
			if rec, _ := f.Applied(); rec != uint64(tc.applied) {
				t.Fatalf("Applied() = %d records, want %d", rec, tc.applied)
			}
		})
	}
}

func flip(b []byte, at int) []byte {
	b[at] ^= 0x10
	return b
}

// openStream issues the follower's GET against a shipper and returns
// a reader over the frame stream.
func openStream(t *testing.T, addr string, from uint64) *bufio.Reader {
	t.Helper()
	tr := &http.Transport{Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("http://%s/repl/stream?from=%d", addr, from), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close(); tr.CloseIdleConnections() })
	return bufio.NewReader(resp.Body)
}

// readGroups reads frames up to the heartbeat that closes a drain and
// returns the ages and payloads of the records in between, checking
// every group against its header and the WAL's frame rule.
func readGroups(t *testing.T, br *bufio.Reader, next uint64) (types []string, payloads [][]byte) {
	t.Helper()
	for {
		fr, err := readStreamFrame(br, DefaultMaxFrame, nil)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, frameName(fr.typ))
		switch fr.typ {
		case frameHeartbeat:
			return types, payloads
		case frameSnapshot:
			if wal.RecordCRC(fr.age, fr.payload) != fr.crc {
				t.Fatal("snapshot failed its checksum")
			}
			next = fr.age
		case frameGroup:
			if fr.age != next {
				t.Fatalf("group starts at %d, want %d", fr.age, next)
			}
			n := uint64(0)
			for b := fr.payload; len(b) > 0; n++ {
				age, pl, rest, err := wal.ParseFrame(b)
				if err != nil || age != next {
					t.Fatalf("record %d of the group at %d: age %d, err %v", n, fr.age, age, err)
				}
				payloads = append(payloads, pl)
				next, b = next+1, rest
			}
			if n != fr.aux {
				t.Fatalf("group at %d holds %d records, its header says %d", fr.age, n, fr.aux)
			}
		}
	}
}

// TestShipperStreams reads what the real shipper writes: one group per
// drain whatever the segment boundaries, a stream that starts wherever
// the follower asks — the middle of a group an earlier stream carried
// included — groups cut at FlushBytes, and a snapshot before the
// groups when the start of the log is gone.
func TestShipperStreams(t *testing.T) {
	frame := int(wal.FrameSize(groupPayload(0)))
	l := newLeaderLog(t, wal.Options{SegmentBytes: int64(7 * frame)})
	ship := NewShipper(l.w, ShipperOptions{Heartbeat: time.Hour, FlushBytes: 25 * frame})
	addr := serveH2C(t, ship.Handler())
	l.fill(40)
	if segs, _ := wal.Segments(l.w.Dir()); len(segs) < 5 {
		t.Fatalf("want the log rolled several times, got %d segments", len(segs))
	}
	checkRange := func(payloads [][]byte, from, to uint64) {
		t.Helper()
		if uint64(len(payloads)) != to-from {
			t.Fatalf("%d records, want [%d,%d)", len(payloads), from, to)
		}
		for i, pl := range payloads {
			if !bytes.Equal(pl, groupPayload(from+uint64(i))) {
				t.Fatalf("record %d shipped as %q", from+uint64(i), pl)
			}
		}
	}

	// From the start: 40 records across six segments, in groups of 25
	// (the flush size) and 15, not one per segment or per record.
	br := openStream(t, addr, 0)
	types, payloads := readGroups(t, br, 0)
	if got := strings.Join(types, " "); got != "hello group group heartbeat" {
		t.Fatalf("stream from 0: %s", got)
	}
	checkRange(payloads, 0, 40)
	// The same stream, next drain: a group that begins and ends inside
	// one segment and one that ends exactly at a roll.
	l.fill(41)
	types, payloads = readGroups(t, br, 40)
	if got := strings.Join(types, " "); got != "group heartbeat" {
		t.Fatalf("second drain: %s", got)
	}
	checkRange(payloads, 40, 41)
	l.fill(42) // 42 = 6 x 7: the sixth segment is full
	_, payloads = readGroups(t, br, 41)
	checkRange(payloads, 41, 42)
	l.fill(45)
	_, payloads = readGroups(t, br, 42)
	checkRange(payloads, 42, 45)

	// A reconnect lands mid-way through the first group shipped above.
	types, payloads = readGroups(t, openStream(t, addr, 17), 17)
	if got := strings.Join(types, " "); got != "hello group group heartbeat" {
		t.Fatalf("stream from 17: %s", got)
	}
	checkRange(payloads, 17, 45)
	// Stats count framed log bytes, as they did when records were
	// shipped one to a frame (a drain is booked after it is written).
	eventually(t, "the shipper's books", func() bool {
		rec, bytes, _, _ := ship.Stats()
		return rec == 45+28 && bytes == uint64((45+28)*frame)
	})

	// Checkpoints prune the log's start: a stream from 0 gets the
	// newest snapshot, then groups from its age on.
	if err := l.w.Checkpoint(20, []byte("state@20")); err != nil {
		t.Fatal(err)
	}
	if err := l.w.Checkpoint(30, []byte("state@30")); err != nil {
		t.Fatal(err)
	}
	if segs, _ := wal.Segments(l.w.Dir()); segs[0].FirstAge == 0 {
		t.Fatal("the log was not compacted")
	}
	types, payloads = readGroups(t, openStream(t, addr, 0), 0)
	if got := strings.Join(types, " "); got != "hello snapshot group heartbeat" {
		t.Fatalf("stream from a compacted age: %s", got)
	}
	checkRange(payloads, 30, 45)
}

// TestSnapshotThenGroupsBootstrap: a fresh follower of a compacted
// leader seeds its log from the shipped snapshot and applies the
// groups behind it.
func TestSnapshotThenGroupsBootstrap(t *testing.T) {
	frame := wal.FrameSize(groupPayload(0))
	l := newLeaderLog(t, wal.Options{SegmentBytes: 7 * frame})
	addr := serveH2C(t, NewShipper(l.w, ShipperOptions{}).Handler())
	l.fill(40)
	for _, age := range []uint64{20, 30} {
		if err := l.w.Checkpoint(age, binary.LittleEndian.AppendUint64(nil, age)); err != nil {
			t.Fatal(err)
		}
	}
	var boot Boot
	got := &applied{}
	f, err := StartFollower(FollowerConfig{Dir: t.TempDir(), Leader: addr, Boot: stubBoot(t, got, &boot)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !boot.FromLeader || boot.SnapshotAge != 30 || binary.LittleEndian.Uint64(boot.Snapshot) != 30 {
		t.Fatalf("boot: from leader %v, snapshot age %d", boot.FromLeader, boot.SnapshotAge)
	}
	eventually(t, "catch-up", func() bool { return f.Frontier() == 40 })
	l.fill(50)
	eventually(t, "catch-up", func() bool { return f.Frontier() == 50 })
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	for i, pl := range got.payloads {
		if !bytes.Equal(pl, groupPayload(30+uint64(i))) {
			t.Fatalf("record %d applied as %q", 30+i, pl)
		}
	}
}

// TestScrapeWhileShipping reads every replication metric family, on
// both sides, while a stream is shipping and applying: the gauges are
// computed from the streams' own progress words. Run under -race.
func TestScrapeWhileShipping(t *testing.T) {
	reg := obs.NewRegistry()
	l := newLeaderLog(t, wal.Options{})
	ship := NewShipper(l.w, ShipperOptions{Obs: reg})
	f, _ := startStubFollower(t, serveH2C(t, ship.Handler()), reg)
	eventually(t, "the stream to connect", func() bool { return ship.Followers() == 1 })

	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				scraped <- err
				return
			}
		}
	}()
	const n = 3000
	for to := uint64(10); to <= n; to += 10 {
		l.fill(to)
	}
	eventually(t, "catch-up", func() bool { return f.Frontier() == n })
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	eventually(t, "the lag gauges to settle", func() bool {
		lag, _ := reg.Value(`ostm_repl_ship_lag_ages{role="leader"}`)
		return lag == 0
	})
	if v, ok := reg.Value(`ostm_repl_records_shipped_total{role="leader"}`); !ok || v != n {
		t.Fatalf("records shipped = %v (found %v), want %d", v, ok, n)
	}
	if v, ok := reg.Value(`ostm_repl_applied_total{role="follower"}`); !ok || v != n {
		t.Fatalf("records applied = %v (found %v), want %d", v, ok, n)
	}
}
