package repl

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/wal"
)

// ShipperOptions parameterizes a leader-side Shipper.
type ShipperOptions struct {
	// Heartbeat is the idle heartbeat interval per stream (default
	// 500ms). A caught-up heartbeat is also sent after every drained
	// batch regardless of the timer.
	Heartbeat time.Duration
	// FlushBytes is the egress buffer size that forces a mid-drain
	// flush, and so the size a group frame is cut at (default 256 KiB).
	FlushBytes int
	// Obs, when non-nil, registers the leader-side replication metric
	// families (ostm_repl_*).
	Obs *obs.Registry
}

func (o ShipperOptions) withDefaults() ShipperOptions {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.FlushBytes <= 0 {
		o.FlushBytes = 256 << 10
	}
	return o
}

// Shipper is the leader side of replication: an http.Handler that
// streams the local WAL to any number of followers. It taps the
// writer's group-commit completion stage, so each stream wakes the
// moment the durability frontier advances and reads strictly below
// it — only durable, contiguous-age bytes ever leave the process.
// Mount Handler on the leader's listener (serve.Config.Handlers) at
// "/repl/stream".
type Shipper struct {
	w    *wal.Writer
	opts ShipperOptions

	mu    sync.Mutex
	subs  map[*connState]chan struct{}
	stats shipStats
}

// connState is one follower stream's book-keeping, tracked for the
// ship-lag gauge (the slowest connected follower defines the lag).
type connState struct {
	shipped atomic.Uint64 // ages below it have been written to this stream
}

// NewShipper builds a shipper over the leader's live writer. The
// writer must outlive the shipper's streams.
func NewShipper(w *wal.Writer, opts ShipperOptions) *Shipper {
	s := &Shipper{
		w:    w,
		opts: opts.withDefaults(),
		subs: make(map[*connState]chan struct{}),
	}
	w.Tap(func(uint64) { s.broadcast() })
	if s.opts.Obs != nil {
		s.registerObs(s.opts.Obs)
	}
	return s
}

// broadcast wakes every stream parked waiting for the frontier. The
// per-stream channel has capacity 1, so a slow stream coalesces wakes
// instead of blocking the writer's completer.
func (s *Shipper) broadcast() {
	s.mu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
}

func (s *Shipper) subscribe(c *connState) chan struct{} {
	ch := make(chan struct{}, 1)
	s.mu.Lock()
	s.subs[c] = ch
	s.mu.Unlock()
	return ch
}

func (s *Shipper) unsubscribe(c *connState) {
	s.mu.Lock()
	delete(s.subs, c)
	s.mu.Unlock()
}

// Followers returns how many follower streams are connected.
func (s *Shipper) Followers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// lagAges returns the slowest connected stream's distance behind the
// durability frontier, in ages (0 with no streams).
func (s *Shipper) lagAges() uint64 {
	durable := s.w.Durable()
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag uint64
	for c := range s.subs {
		// A stream may have shipped past the frontier read above.
		if sh := c.shipped.Load(); sh < durable && durable-sh > lag {
			lag = durable - sh
		}
	}
	return lag
}

// Handler returns the stream endpoint. One request = one follower
// stream; the ?from query parameter is the age of the first record
// the follower lacks.
func (s *Shipper) Handler() http.Handler {
	return http.HandlerFunc(s.serveStream)
}

func (s *Shipper) serveStream(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "repl: bad or missing ?from", http.StatusBadRequest)
		return
	}
	conn := new(connState)
	conn.shipped.Store(from)
	wake := s.subscribe(conn)
	defer s.unsubscribe(conn)

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	buf := appendFrame(nil, frameHello, s.w.Durable(), s.w.Bytes(), 0, nil)
	if _, err := w.Write(buf); err != nil {
		return
	}
	_ = rc.Flush()

	cur, err := wal.NewCursor(s.w.Dir(), from)
	if err != nil {
		return
	}
	defer cur.Close()

	hb := time.NewTicker(s.opts.Heartbeat)
	defer hb.Stop()
	segsPrev := cur.Segments()
	for {
		limit := s.w.Durable()
		buf = buf[:0]
		var nrec, nbytes uint64
		for {
			// One group frame per run of durable records: the cursor
			// copies their frames out of the segment file as they are.
			start := len(buf)
			var first uint64
			var n int
			buf, first, n, err = cur.AppendFrames(beginGroup(buf), limit, s.opts.FlushBytes)
			if errors.Is(err, wal.ErrCompacted) {
				// The records this follower needs are gone (checkpoint
				// truncation). Bootstrap it from the newest checkpoint
				// instead, then resume records at the checkpoint age.
				buf, err = s.appendSnapshot(buf[:0], conn)
				if err != nil {
					return
				}
				cur.Close()
				if cur, err = wal.NewCursor(s.w.Dir(), conn.shipped.Load()); err != nil {
					return
				}
				segsPrev = cur.Segments()
				continue
			}
			if err != nil {
				// Log corruption or I/O failure: nothing safe to ship.
				return
			}
			if n == 0 {
				buf = buf[:start]
				break
			}
			endGroup(buf, start, first, n)
			conn.shipped.Store(first + uint64(n))
			nrec += uint64(n)
			nbytes += uint64(len(buf) - start - 4 - frameHeaderLen)
			if len(buf) >= s.opts.FlushBytes {
				if _, err := w.Write(buf); err != nil {
					return
				}
				_ = rc.Flush()
				buf = buf[:0]
			}
		}
		// Caught up to the frontier: a heartbeat closes every drain so
		// the follower sees the frontier it just reached (and can
		// calibrate byte lag against aux).
		buf = appendFrame(buf, frameHeartbeat, s.w.Durable(), s.w.Bytes(), 0, nil)
		if _, err := w.Write(buf); err != nil {
			return
		}
		_ = rc.Flush()
		s.account(nrec, nbytes, cur.Segments()-segsPrev)
		segsPrev = cur.Segments()
		select {
		case <-wake:
		case <-hb.C:
		case <-r.Context().Done():
			return
		}
	}
}

// appendSnapshot frames the newest checkpoint as a bootstrap snapshot
// and advances the stream to its age.
func (s *Shipper) appendSnapshot(buf []byte, conn *connState) ([]byte, error) {
	ages, err := wal.Checkpoints(s.w.Dir())
	if err != nil {
		return nil, err
	}
	if len(ages) == 0 {
		return nil, fmt.Errorf("repl: records below %d compacted but no checkpoint exists", conn.shipped.Load())
	}
	age := ages[len(ages)-1]
	state, err := wal.ReadCheckpoint(s.w.Dir(), age)
	if err != nil {
		return nil, err
	}
	if from := conn.shipped.Load(); age < from {
		return nil, fmt.Errorf("repl: newest checkpoint %d below compacted request %d", age, from)
	}
	buf = appendFrame(buf, frameSnapshot, age, s.w.Bytes(), wal.RecordCRC(age, state), state)
	conn.shipped.Store(age)
	s.mu.Lock()
	s.stats.snapshots++
	s.mu.Unlock()
	return buf, nil
}

// shipStats aggregates per-stream egress across the shipper's life.
type shipStats struct {
	records   uint64
	bytes     uint64
	segments  uint64
	snapshots uint64
}

func (s *Shipper) account(records, bytes, segments uint64) {
	s.mu.Lock()
	s.stats.records += records
	s.stats.bytes += bytes
	s.stats.segments += segments
	s.mu.Unlock()
}

// Stats returns cumulative egress counts: records, framed bytes,
// segment files opened, and snapshots shipped across all streams.
func (s *Shipper) Stats() (records, bytes, segments, snapshots uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.records, s.stats.bytes, s.stats.segments, s.stats.snapshots
}
