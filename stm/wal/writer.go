package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrClosed is returned by Append and Sync after Close.
var ErrClosed = errors.New("wal: writer closed")

// flushChunk bounds how much appended data may sit in the in-process
// buffer before it is written through to the OS (without fsync), so a
// sync-policy-"none" stream does not accumulate its whole history in
// memory.
const flushChunk = 1 << 20

// Writer appends the committed-order record stream to a segmented log.
// It implements stm.DurableLog.
//
// Append is cheap — it frames the record into an in-process buffer —
// and strictly age-ordered: the first append must be the log's first
// age (Create's firstAge, or Recovery.Next after a restart), and each
// append the age after the previous one. An append below the expected
// age is a no-op success: the record is already in the log, which is
// what makes recovery replay through a WAL-attached pipeline
// idempotent.
//
// Durability advances only at sync points, chosen by Options (group
// commit) or forced by Sync. Sync points are pipelined: admission
// snapshots the group (buffer flushed, target frontier fixed) and
// hands it to a sync worker, so the next group is admitted while the
// previous fsync is still in flight; the completer then retires
// groups strictly in admission order, which keeps the durability
// frontier monotone and observer callbacks in age order. All methods
// are safe for concurrent use; appends may proceed while any number
// of fsyncs are in flight, which is where group commit's throughput
// comes from.
type Writer struct {
	opts Options
	dir  string
	fs   FS // Options.FS, defaulted to OS

	mu      sync.Mutex
	f       File
	buf     []byte // framed records not yet written to f
	segSize int64  // bytes already written to f (excludes buf)
	sinceN  int    // appends since the last count-based sync kick
	// growTimer bounds how long an adaptive group that was told more is
	// coming may wait for it on an idle device: armed (growArmed) for
	// one syncEst by the first such append, it kicks the admission
	// loop; admission disarms it. nil unless the policy is adaptive.
	growTimer *time.Timer
	growArmed bool
	retired   []File // full segments awaiting their fsync+close
	dirDirty  bool   // a segment was created since the last dir sync
	err       error
	notify    func(next uint64, err error)
	taps      []func(durable uint64)
	closed    bool

	// admitMu serializes sync-group admission (the append/admission
	// stage of the pipelined syncer). Lock order: admitMu may take mu
	// (admission snapshots the group under it); mu never waits on
	// admitMu — a segment roll only parks the finished file on the
	// retired list, leaving all storage waits (fsync, close, directory
	// sync) to the sync workers, off the commit path.
	admitMu     sync.Mutex
	admitClosed bool   // opCh closed; no further admissions
	seq         uint64 // admission sequence number (completion order)

	next    atomic.Uint64 // next age to append
	durable atomic.Uint64 // every age below it is on stable storage
	fsyncs  atomic.Uint64
	nbytes  atomic.Uint64 // framed bytes appended over the log's life

	admittedB atomic.Uint64 // nbytes watermark at the last admission
	syncEst   atomic.Int64  // running estimate of one fdatasync, ns (0 before the first)
	inflight  atomic.Int64  // sync groups admitted but not yet completed
	depthMax  atomic.Int64  // high watermark of inflight
	overlaps  atomic.Uint64 // admissions that found another sync in flight

	opCh   chan *syncOp // admission → sync workers
	compCh chan *syncOp // sync workers → completer
	wdone  sync.WaitGroup
	cdone  chan struct{}

	ckptMu   sync.Mutex // serializes Checkpoint
	ckptAge_ atomic.Uint64
	ckpts    atomic.Uint64

	ioErrs    ioErrCounters
	retries   atomic.Uint64 // operations retried after a transient failure
	degraded  atomic.Bool   // OnFail=Degrade tripped; durability detached
	failNoted atomic.Bool   // the failure notification has been delivered

	kick     chan struct{}
	done     chan struct{}
	loopDone chan struct{} // nil when no background syncer runs

	wo *walObs // nil unless Options.Obs is set
}

// syncOp is one admitted sync group: everything appended up to target
// was flushed to the OS at admission; the op carries the storage work
// (fsync retired segments, fsync the current segment, sync the
// directory) to a worker, and its in-order completion advances the
// durability frontier.
type syncOp struct {
	seq      uint64
	target   uint64
	retired  []File
	cur      File
	dirDirty bool
	err      error
	done     chan struct{} // non-nil for explicit Sync waiters
}

// ioErrCounters tallies terminal-and-transient I/O failures by
// operation class, feeding the wal_io_errors{op} metric family.
type ioErrCounters struct {
	write   atomic.Uint64 // segment writes (incl. short writes)
	fsync   atomic.Uint64 // fdatasync of a segment
	dirsync atomic.Uint64 // directory syncs
	open    atomic.Uint64 // segment creation (e.g. ENOSPC on roll)
	ckpt    atomic.Uint64 // checkpoint write/rename path
}

func (c *ioErrCounters) total() uint64 {
	return c.write.Load() + c.fsync.Load() + c.dirsync.Load() +
		c.open.Load() + c.ckpt.Load()
}

// Create initializes a fresh log in dir whose first record will carry
// firstAge, and returns its Writer. The directory is created if
// missing and must not already contain segments (recover an existing
// log with Recover instead). The first — empty — segment is created
// eagerly so the log's starting age survives a crash that happens
// before the first append.
func Create(dir string, firstAge uint64, opts Options) (*Writer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		return nil, fmt.Errorf("wal: %s already holds a log (first segment %016x); use Recover", dir, segs[0].age)
	}
	w := newWriter(dir, opts)
	w.next.Store(firstAge)
	w.durable.Store(firstAge)
	if err := w.openSegment(firstAge); err != nil {
		return nil, err
	}
	if err := w.fs.SyncDir(dir); err != nil {
		w.f.Close()
		return nil, err
	}
	w.startSyncer()
	return w, nil
}

func newWriter(dir string, opts Options) *Writer {
	return &Writer{
		opts:   opts,
		dir:    dir,
		fs:     opts.FS,
		opCh:   make(chan *syncOp),
		compCh: make(chan *syncOp, opts.MaxInFlightSyncs),
		cdone:  make(chan struct{}),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// startSyncer launches the sync-stage goroutines: MaxInFlightSyncs
// workers that fsync admitted groups in parallel, the completer that
// retires them in admission order, and — when the policy needs one
// (count-, time-based or adaptive syncing) — the admission loop that
// turns kicks and ticks into sync groups. Policy "none" runs only the
// workers: durability points are wherever the caller puts Sync.
func (w *Writer) startSyncer() {
	if w.opts.Obs != nil {
		w.wo = newWalObs(w.opts.Obs, w)
	}
	for i := 0; i < w.opts.MaxInFlightSyncs; i++ {
		w.wdone.Add(1)
		go w.syncWorker()
	}
	go w.completer()
	if w.opts.SyncEveryN <= 0 && w.opts.SyncInterval <= 0 && !w.opts.Adaptive {
		return
	}
	w.loopDone = make(chan struct{})
	if w.opts.Adaptive {
		w.growTimer = time.AfterFunc(time.Hour, w.kickSync)
		w.growTimer.Stop()
	}
	go w.syncLoop()
}

// Policy returns the writer's sync policy in human-readable form.
func (w *Writer) Policy() string { return w.opts.policy() }

// Next returns the next age the writer expects to append.
func (w *Writer) Next() uint64 { return w.next.Load() }

// Durable returns the durability frontier: every age below it is on
// stable storage. It implements stm.DurableLog.
func (w *Writer) Durable() uint64 { return w.durable.Load() }

// Fsyncs returns how many fsyncs the writer has issued.
func (w *Writer) Fsyncs() uint64 { return w.fsyncs.Load() }

// Bytes returns the total framed bytes appended over the log's life,
// including recovered history when the writer was reopened.
func (w *Writer) Bytes() uint64 { return w.nbytes.Load() }

// SyncDepthMax returns the high watermark of concurrently in-flight
// sync groups — the pipelining actually achieved (>1 means an fsync
// overlapped another group's admission or fsync).
func (w *Writer) SyncDepthMax() int { return int(w.depthMax.Load()) }

// OverlappedSyncs returns how many sync groups were admitted while at
// least one earlier group's fsync was still in flight.
func (w *Writer) OverlappedSyncs() uint64 { return w.overlaps.Load() }

// Notify registers the durability observer: fn is called after every
// sync-point completion with the new durability frontier, and with a
// non-nil error if the log fails. Completions are delivered strictly
// in admission (= age) order, without writer locks held; at most one
// observer is supported (the pipeline). It implements stm.DurableLog.
func (w *Writer) Notify(fn func(next uint64, err error)) {
	w.mu.Lock()
	w.notify = fn
	w.mu.Unlock()
}

// Tap registers an additional durability observer: fn is called after
// every successful sync-point completion with the new durability
// frontier, in frontier order, without writer locks held. Unlike
// Notify — the single structural observer that is the pipeline — taps
// are additive and never see errors; they exist for components that
// chase the durable prefix, such as a replication shipper waking up to
// read newly-durable bytes. fn must not block: it runs on the
// completer goroutine, upstream of every later group's retirement.
func (w *Writer) Tap(fn func(durable uint64)) {
	w.mu.Lock()
	w.taps = append(w.taps, fn)
	w.mu.Unlock()
}

// Dir returns the log's directory.
func (w *Writer) Dir() string { return w.dir }

// Append frames the record for age into the log. Ages must arrive in
// order; an age already in the log is ignored (see type doc). The
// record is buffered — not durable — until the next sync point.
func (w *Writer) Append(age uint64, payload []byte) error {
	return w.AppendMore(age, payload, false)
}

// AppendMore is Append with a hint, in the manner of MSG_MORE: more
// says the caller already knows of another record on its way (a
// submitted transaction not yet committed). The adaptive policy uses
// it to size a sync group to the commit burst — on an idle device it
// holds the group open instead of syncing its first record alone; see
// Options.Adaptive for what closes it. Other policies ignore the hint,
// and more=false is exactly Append. It implements the pipeline's
// optional hinted-append interface.
func (w *Writer) AppendMore(age uint64, payload []byte, more bool) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	next := w.next.Load()
	if age < next {
		w.mu.Unlock()
		return nil // already logged (recovery replay)
	}
	if age != next {
		w.mu.Unlock()
		return fmt.Errorf("wal: append age %d out of order (expected %d)", age, next)
	}
	need := recordSize(payload)
	if filled := w.segSize + int64(len(w.buf)); filled > 0 && filled+need > w.opts.SegmentBytes {
		if err := w.rollLocked(); err != nil {
			err = w.failLocked(err)
			w.mu.Unlock()
			w.notifyFailAsync()
			return err
		}
	}
	w.buf = appendRecord(w.buf, age, payload)
	w.next.Store(age + 1)
	w.nbytes.Add(uint64(need))
	var kicked bool
	switch {
	case w.opts.Adaptive:
		// Adaptive sizing: while syncs are in flight let the group grow
		// until it hits the byte target (a slot freeing up admits it
		// earlier — see admit-on-drain). On an idle device admit at once
		// (lowest latency) unless more is coming: then the group stays
		// open for the rest of the burst, for one fsync time at most.
		est := w.syncEst.Load()
		switch {
		case w.nbytes.Load()-w.admittedB.Load() >= uint64(w.opts.AdaptiveBytes):
			kicked = true
		case w.inflight.Load() > 0:
		case !more || est == 0:
			kicked = true
		case !w.growArmed:
			w.growArmed = true
			w.growTimer.Reset(time.Duration(est))
		}
	case w.opts.SyncEveryN > 0:
		// The count is a cap on how long a record may wait under load,
		// never a reason to strand one while the device is idle: an
		// append that finds no sync in flight admits immediately, and
		// groups self-size to fsync duration once the device is busy
		// (everything appended during one fsync rides the next). This
		// is what keeps closed-loop WaitDurable cadence at device
		// speed instead of idle-timer speed.
		if w.sinceN++; w.sinceN >= w.opts.SyncEveryN || w.inflight.Load() == 0 {
			w.sinceN = 0
			kicked = true
		}
	}
	if len(w.buf) >= flushChunk {
		if err := w.flushLocked(); err != nil {
			err = w.failLocked(err)
			w.mu.Unlock()
			w.notifyFailAsync()
			return err
		}
	}
	w.mu.Unlock()
	if kicked {
		w.kickSync()
	}
	return nil
}

func (w *Writer) kickSync() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// admit is the append/admission stage of the pipelined syncer: it
// flushes the buffer, snapshots the sync group (target frontier,
// retired segments, current segment, directory dirtiness) and hands
// it to a sync worker. The send blocks once MaxInFlightSyncs groups
// are on the wire — that is the pipeline's backpressure. With wait
// set (explicit Sync) the op carries a done channel the completer
// closes.
func (w *Writer) admit(wait bool) (*syncOp, error) {
	w.admitMu.Lock()
	defer w.admitMu.Unlock()
	if w.admitClosed {
		return nil, ErrClosed
	}
	w.mu.Lock()
	if w.err != nil {
		// The log is already dead; still fire the observer so tickets
		// parked awaiting durability before the failure learn about it
		// instead of hanging until Close.
		err := w.err
		fn := w.notify
		w.mu.Unlock()
		w.failNoted.Store(true)
		if fn != nil {
			fn(w.durable.Load(), err)
		}
		return nil, err
	}
	if w.f == nil {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	if err := w.flushLocked(); err != nil {
		err = w.failLocked(err)
		fn := w.notify
		w.mu.Unlock()
		w.failNoted.Store(true)
		if fn != nil {
			fn(w.durable.Load(), err)
		}
		return nil, err
	}
	op := &syncOp{
		seq:      w.seq,
		target:   w.next.Load(),
		retired:  w.retired,
		cur:      w.f,
		dirDirty: w.dirDirty,
	}
	w.seq++
	w.retired = nil
	w.dirDirty = false
	w.sinceN = 0
	w.admittedB.Store(w.nbytes.Load())
	if w.growArmed {
		w.growArmed = false
		w.growTimer.Stop()
	}
	w.mu.Unlock()
	w.wo.admitted(op.target)
	if wait {
		op.done = make(chan struct{})
	}
	if d := w.inflight.Add(1); d > 1 {
		w.overlaps.Add(1)
		for {
			max := w.depthMax.Load()
			if d <= max || w.depthMax.CompareAndSwap(max, d) {
				break
			}
		}
	} else {
		for {
			max := w.depthMax.Load()
			if d <= max || w.depthMax.CompareAndSwap(max, d) {
				break
			}
		}
	}
	w.opCh <- op
	return op, nil
}

// syncWorker is the in-flight sync stage: it performs each admitted
// group's storage work. Several workers may fsync concurrently
// (concurrent fsyncs of the same file are safe — each returns once
// the file's dirty pages up to its own admission are stable); ordering
// is restored by the completer.
func (w *Writer) syncWorker() {
	defer w.wdone.Done()
	for op := range w.opCh {
		w.doSync(op)
		w.compCh <- op
	}
}

func (w *Writer) doSync(op *syncOp) {
	for _, rf := range op.retired {
		if op.err != nil {
			break
		}
		if op.err = w.timedSync(rf); op.err == nil {
			w.fsyncs.Add(1)
		}
	}
	if op.err == nil && op.target > w.durable.Load() {
		if op.err = w.timedSync(op.cur); op.err == nil {
			w.fsyncs.Add(1)
		}
	}
	if op.err == nil && op.dirDirty {
		// Segment files must be reachable from the directory before
		// their records count as durable — a dir-sync failure must
		// hold the frontier back, not be shrugged off.
		op.err = w.retry(&w.ioErrs.dirsync, func() error { return w.fs.SyncDir(w.dir) })
	}
}

// timedSync is Fdatasync with the retry policy applied, timed: every
// call feeds the fsync-latency histogram (when observed) and the
// writer's running estimate of one fsync, a moving average over the
// last eight or so.
func (w *Writer) timedSync(f File) error {
	return w.retry(&w.ioErrs.fsync, func() error {
		t0 := time.Now()
		err := f.Fdatasync()
		d := time.Since(t0).Nanoseconds()
		if w.wo != nil {
			w.wo.fsyncLat.Observe(d)
		}
		if est := w.syncEst.Load(); est != 0 {
			d = est + (d-est)/8
		}
		w.syncEst.Store(max(d, 1))
		return err
	})
}

// retry runs op, retrying per Options.Retry with exponential backoff
// on failure. Every failed attempt counts into the per-op error
// counter; every re-attempt counts into retries. The sync stage
// retries off the commit path; the append path's retries (segment
// write, segment open on roll) happen under mu and therefore stall
// appends for at most the bounded backoff sum — the price of riding
// out a transient error without declaring the log dead.
func (w *Writer) retry(cnt *atomic.Uint64, op func() error) error {
	err := op()
	if err == nil {
		return nil
	}
	cnt.Add(1)
	pol := w.opts.Retry
	backoff := pol.Backoff
	for i := 0; i < pol.Max; i++ {
		time.Sleep(backoff)
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
		w.retries.Add(1)
		if err = op(); err == nil {
			return nil
		}
		cnt.Add(1)
	}
	return err
}

// completer retires sync groups strictly in admission order: it closes
// the segments a group retired (safe only here — all earlier groups,
// the last that could fsync those files, have completed), advances the
// durability frontier, and fires the observer. Out-of-order worker
// completions park until their turn.
func (w *Writer) completer() {
	defer close(w.cdone)
	pend := make(map[uint64]*syncOp)
	var next uint64
	for op := range w.compCh {
		pend[op.seq] = op
		for {
			o, ok := pend[next]
			if !ok {
				break
			}
			delete(pend, next)
			next++
			w.complete(o)
			w.inflight.Add(-1)
		}
	}
}

func (w *Writer) complete(op *syncOp) {
	for _, rf := range op.retired {
		if cerr := rf.Close(); cerr != nil && op.err == nil {
			op.err = cerr
		}
	}
	w.mu.Lock()
	if w.err != nil && op.err == nil {
		// An earlier sync point failed: the durable prefix is frozen,
		// and this group's own success must not leapfrog the failure.
		op.err = w.err
	}
	if op.err != nil {
		op.err = w.failLocked(op.err)
		w.failNoted.Store(true) // the observer call below delivers it
	} else if op.target > w.durable.Load() {
		w.durable.Store(op.target)
	}
	fn := w.notify
	taps := w.taps
	drain := op.err == nil && w.loopDone != nil && !w.closed &&
		(w.opts.SyncEveryN > 0 || w.opts.Adaptive) &&
		w.next.Load() != w.durable.Load()
	w.mu.Unlock()
	if fn != nil {
		fn(w.durable.Load(), op.err)
	}
	if op.err == nil {
		for _, tap := range taps {
			tap(w.durable.Load())
		}
	}
	if op.done != nil {
		close(op.done)
	}
	if drain {
		// Admit-on-drain: records are pending and a sync slot just
		// freed — admit them now instead of stranding a partial group
		// behind the idle timer. This is what keeps the durable tail
		// latency at device speed when producers are slower than the
		// group-size target.
		w.kickSync()
	}
}

// Sync makes every appended record durable before returning: it admits
// a sync group covering everything appended so far and waits for its
// in-order completion (which also covers every earlier group). Safe to
// call from any goroutine, including concurrently with Append.
func (w *Writer) Sync() error {
	op, err := w.admit(true)
	if err != nil {
		return err
	}
	<-op.done
	return op.err
}

// Close stops the syncer, makes the tail durable, and closes the
// current segment. The writer rejects appends afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	if w.loopDone != nil {
		close(w.done)
		<-w.loopDone
	}
	err := w.Sync() // final sync point; in-order completion covers all earlier ones
	w.admitMu.Lock()
	w.admitClosed = true
	close(w.opCh)
	w.admitMu.Unlock()
	w.wdone.Wait()
	close(w.compCh)
	<-w.cdone
	w.mu.Lock()
	for _, rf := range w.retired { // only non-empty if the sync failed
		rf.Close()
	}
	w.retired = nil
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	w.mu.Unlock()
	return err
}

// idleFlush bounds how long a partial group may strand the tail when
// no interval policy is configured: count and adaptive policies kick
// on their own triggers, but a stream that simply stops producing
// would otherwise leave its last records — and any WaitDurable ticket
// parked on them — waiting for traffic that may never come.
const idleFlush = 2 * time.Millisecond

// syncLoop is the admission loop of the group-commit syncer: it turns
// count kicks, adaptive kicks, drain kicks and interval ticks into
// sync-group admissions, each covering every record appended since the
// previous admission.
func (w *Writer) syncLoop() {
	defer close(w.loopDone)
	interval := w.opts.SyncInterval
	if interval <= 0 {
		interval = idleFlush
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-w.kick:
			if w.nbytes.Load() == w.admittedB.Load() {
				continue // everything appended is already on the wire
			}
		case <-t.C:
			if w.next.Load() == w.durable.Load() {
				continue // nothing dirty
			}
		}
		if _, err := w.admit(false); err != nil {
			return // log closed or dead; errors latched into w.err
		}
	}
}

// flushLocked writes the buffer through to the OS (no fsync),
// retrying transient and short writes per the retry policy. Caller
// holds mu.
func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	buf := w.buf
	err := w.retry(&w.ioErrs.write, func() error {
		n, werr := w.f.Write(buf)
		w.segSize += int64(n)
		buf = buf[n:]
		if werr == nil && len(buf) > 0 {
			werr = io.ErrShortWrite
		}
		return werr
	})
	if err != nil {
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// rollLocked finishes the current segment and opens a fresh one named
// by the next age. Caller holds mu. The finished segment is only
// flushed and parked on the retired list — its fsync and close happen
// at the next sync point, so a roll on the commit path never waits on
// stable storage.
func (w *Writer) rollLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	w.retired = append(w.retired, w.f)
	w.f = nil
	if err := w.openSegment(w.next.Load()); err != nil {
		return err
	}
	w.dirDirty = true
	return nil
}

// failLocked latches a terminal failure per the OnFail policy and
// returns the latched error. Under FailStop the log is dead: w.err is
// the raw cause and every durable-path call returns it. Under Degrade
// the log detaches at a clean record boundary instead: the buffer
// (which only ever holds whole frames) is dropped, the degraded gauge
// flips, and w.err wraps ErrDegraded — appends and syncs fail fast
// with it while the engine above keeps committing volatile. Either
// way the durable prefix below the last completed sync point stands.
// Caller holds mu.
func (w *Writer) failLocked(err error) error {
	if w.err != nil {
		return w.err
	}
	if w.opts.OnFail == Degrade {
		w.degraded.Store(true)
		w.buf = w.buf[:0]
		w.err = fmt.Errorf("%w (cause: %v)", ErrDegraded, err)
	} else {
		w.err = err
	}
	return w.err
}

// notifyFailAsync delivers a failure to the durability observer from
// its own goroutine, at most once across all failure paths. Append
// runs under the pipeline's stream lock and the observer
// (Pipeline.durableTo) takes that same lock, so the append path must
// never call the observer synchronously; the async note is what fails
// WaitDurable tickets parked before the failure fast, instead of
// leaving them to hang until the next sync point or Close.
func (w *Writer) notifyFailAsync() {
	if !w.failNoted.CompareAndSwap(false, true) {
		return
	}
	go func() {
		w.mu.Lock()
		fn, err := w.notify, w.err
		w.mu.Unlock()
		if fn != nil && err != nil {
			fn(w.durable.Load(), err)
		}
	}()
}

// Degraded reports whether the log has detached under OnFail=Degrade.
func (w *Writer) Degraded() bool { return w.degraded.Load() }

// Retries returns how many I/O operations were re-attempted after a
// transient failure.
func (w *Writer) Retries() uint64 { return w.retries.Load() }

// IOErrors returns the total count of failed I/O attempts across all
// operation classes (per-class counts feed the wal_io_errors{op}
// metric family).
func (w *Writer) IOErrors() uint64 { return w.ioErrs.total() }

// openSegment creates the segment file whose first record will carry
// age. Caller holds mu (or is the constructor).
func (w *Writer) openSegment(age uint64) error {
	var f File
	err := w.retry(&w.ioErrs.open, func() error {
		var oerr error
		f, oerr = w.fs.OpenFile(segmentPath(w.dir, age), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		return oerr
	})
	if err != nil {
		return err
	}
	w.f = f
	w.segSize = 0
	return nil
}

// segmentPath names segments by the age of their first record.
func segmentPath(dir string, age uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.wal", age))
}

// syncDir fsyncs the directory so segment creation/removal survives a
// crash. A filesystem that does not support directory fsync reports
// EINVAL, which is benign (there is nothing stronger to ask of it);
// any other failure is a genuine I/O error the caller must treat as a
// failed sync point.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil && errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}
