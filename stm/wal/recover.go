package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// Record is one recovered log entry: the encoded input payload of the
// transaction committed at Age.
type Record struct {
	Age     uint64
	Payload []byte
}

// Recovery is the result of scanning a log directory: the newest valid
// checkpoint (if any) plus where the surviving contiguous record
// suffix at or above it runs, with any torn tail already truncated
// from disk. It holds no payloads: Replay streams the suffix from disk
// to a deterministic engine seeded from the checkpoint state; Writer
// reopens the log for appends where the suffix ends.
type Recovery struct {
	dir       string
	first     uint64
	next      uint64
	count     int    // records in [first, next)
	countB    uint64 // their framed bytes
	lastPath  string // surviving tail segment; "" when the directory held none
	lastSize  int64
	firstPath string // segment holding First()'s record; "" when the suffix is empty
	firstOff  int64  // that record's byte offset in it
	truncated bool

	hasCkpt   bool
	ckptAge   uint64
	ckptState []byte
	skipped   int    // records below the checkpoint, not replayed
	skippedB  uint64 // their framed bytes
}

// Recover scans the log in dir, truncates any torn tail, and returns
// the newest valid checkpoint plus the bounds of the surviving record
// suffix. It validates and counts; it keeps no record.
//
// Checkpoint selection: the CHECKPOINT manifest's age is considered
// first, then every `%016x.ckpt` file newest-first; the first
// candidate whose frame verifies wins. A torn manifest or snapshot is
// skipped, not fatal — recovery degrades to an older checkpoint, or
// to full replay when no checkpoint verifies.
//
// The torn-tail rule: records are read in age order across segments;
// the first record that is short (the crash landed mid-write), fails
// its CRC, or carries an unexpected age marks the cut. The segment is
// truncated at that record's start and every later segment is
// deleted. Everything before the cut is durable, contiguous, and —
// folded into the checkpoint state in order — reproduces exactly the
// sequential-execution state of the durable prefix. Records below the
// checkpoint age are CRC-verified (they anchor the contiguity chain)
// but not counted for replay: Count and Replay cover only the suffix
// at or above the checkpoint.
//
// Recovering an empty or missing directory yields an empty prefix
// starting at age 0 (Writer will then create the log fresh).
func Recover(dir string) (*Recovery, error) {
	r := &Recovery{dir: dir}
	if err := r.loadCheckpoint(); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if r.hasCkpt {
			r.first, r.next = r.ckptAge, r.ckptAge
		}
		return r, nil
	}
	segFirst := segs[0].age
	expect := segFirst
	var sc scanner
	for i, seg := range segs {
		if seg.age != expect {
			// A gap (lost segment) or overlap: nothing at or past this
			// file can extend the contiguous prefix.
			if err := removeSegments(dir, segs[i:]); err != nil {
				return nil, err
			}
			r.truncated = true
			break
		}
		n, torn, err := r.scanSegment(&sc, seg, &expect, i == len(segs)-1)
		if err != nil {
			return nil, err
		}
		r.lastPath, r.lastSize = seg.path, n
		if torn {
			if err := removeSegments(dir, segs[i+1:]); err != nil {
				return nil, err
			}
			break
		}
	}
	r.next = expect
	r.first = segFirst
	if r.hasCkpt {
		if err := r.reconcile(segFirst); err != nil {
			return nil, err
		}
	}
	if r.truncated {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// loadCheckpoint picks the newest checkpoint that verifies.
func (r *Recovery) loadCheckpoint() error {
	ages, err := listCheckpoints(r.dir)
	if err != nil {
		return err
	}
	var cands []uint64
	if a, ok := readManifest(r.dir); ok {
		cands = append(cands, a)
	}
	for i := len(ages) - 1; i >= 0; i-- {
		if len(cands) > 0 && ages[i] == cands[0] {
			continue
		}
		cands = append(cands, ages[i])
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i] > cands[j] })
	for _, age := range cands {
		state, err := readCheckpointFile(checkpointPath(r.dir, age), age)
		if err != nil {
			continue // torn or missing: fall back to the next candidate
		}
		r.hasCkpt, r.ckptAge, r.ckptState = true, age, state
		return nil
	}
	return nil
}

// reconcile aligns the scanned record chain with the checkpoint.
// segFirst is the first scanned segment's age; r.next the frontier the
// scan reached. Three shapes need care:
//
//   - checkpoint newer than the surviving tail (the tail was torn or
//     segments were lost after the checkpoint committed): every
//     surviving record is already folded into the checkpoint state, so
//     the segments are dropped and the log restarts at the checkpoint;
//   - a gap between the checkpoint and the first surviving segment
//     (records the checkpoint does not cover are missing): the suffix
//     is unusable, the checkpoint state stands alone;
//   - the normal shape — the chain spans the checkpoint age — where
//     replay starts at the checkpoint and the records below it were
//     already dropped during the scan.
func (r *Recovery) reconcile(segFirst uint64) error {
	if r.ckptAge > r.next || segFirst > r.ckptAge {
		segs, err := listSegments(r.dir)
		if err != nil {
			return err
		}
		if err := removeSegments(r.dir, segs); err != nil {
			return err
		}
		r.truncated = true // records were genuinely lost either way
		r.skipped += r.count
		r.skippedB += r.countB
		r.count, r.countB = 0, 0
		r.lastPath, r.lastSize, r.firstPath = "", 0, ""
		r.first, r.next = r.ckptAge, r.ckptAge
		return nil
	}
	r.first = r.ckptAge
	return nil
}

// scanSegment checks one segment's frames, advancing *expect per good
// record and counting it: as skipped below the checkpoint age, for
// replay at or above it. It returns the number of valid bytes and
// whether the segment was torn (in which case it has been truncated on
// disk at the last good record). In the log's tail segment, a
// remainder of nothing but zero bytes is the writer's zero padding —
// the log's clean end, left in place; anywhere else, zeros are as torn
// as any other bytes.
func (r *Recovery) scanSegment(sc *scanner, seg segment, expect *uint64, tail bool) (int64, bool, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	sc.reset(f, 0, st.Size())
	for {
		at := sc.pos()
		frame, age, err := sc.next(true)
		if err == io.EOF {
			return at, false, nil
		}
		if _, torn := err.(*tornError); !torn && err != nil {
			return 0, false, err
		}
		if err != nil || age != *expect {
			if tail {
				zero, err := zeroRest(sc, at)
				if err != nil || zero {
					return at, false, err
				}
			}
			// Torn or corrupt tail: cut at the last good record.
			if err := os.Truncate(seg.path, at); err != nil {
				return 0, false, err
			}
			r.truncated = true
			return at, true, nil
		}
		if r.hasCkpt && age < r.ckptAge {
			r.skipped++
			r.skippedB += uint64(len(frame))
		} else {
			if r.count == 0 {
				r.firstPath, r.firstOff = seg.path, at // where Replay starts
			}
			r.count++
			r.countB += uint64(len(frame))
		}
		*expect = age + 1
	}
}

// zeroRest reports whether sc's file holds only zero bytes from
// offset at on.
func zeroRest(sc *scanner, at int64) (bool, error) {
	sc.reset(sc.f, at, sc.end)
	for !sc.eof {
		if err := sc.fill(maxRead); err != nil {
			return false, err
		}
		if slices.ContainsFunc(sc.buf[sc.r:sc.w], func(c byte) bool { return c != 0 }) {
			return false, nil
		}
		sc.r = sc.w
	}
	return true, nil
}

// First returns the age recovery replay must start from: the
// checkpoint age when a checkpoint was loaded (seed the engine with
// CheckpointState, then replay), otherwise the log's first record
// (stm.Config.FirstAge for the replaying pipeline).
func (r *Recovery) First() uint64 { return r.first }

// Next returns the age one past the last surviving record — where the
// reopened Writer will append, and the frontier a recovered pipeline
// resumes at.
func (r *Recovery) Next() uint64 { return r.next }

// Count returns how many records survived for replay (records below
// the checkpoint are not counted; see Skipped).
func (r *Recovery) Count() int { return r.count }

// Truncated reports whether the scan found (and cut) a torn tail.
func (r *Recovery) Truncated() bool { return r.truncated }

// HasCheckpoint reports whether a valid checkpoint was loaded.
func (r *Recovery) HasCheckpoint() bool { return r.hasCkpt }

// CheckpointAge returns the loaded checkpoint's frontier age (0 when
// HasCheckpoint is false). Every record below it is folded into
// CheckpointState; replay covers only [CheckpointAge, Next).
func (r *Recovery) CheckpointAge() uint64 { return r.ckptAge }

// CheckpointState returns the loaded checkpoint's application state
// (nil when HasCheckpoint is false). Treat it as read-only.
func (r *Recovery) CheckpointState() []byte { return r.ckptState }

// Skipped returns how many durable records the checkpoint made
// redundant — the log the recovery did *not* have to replay — and
// their framed bytes.
func (r *Recovery) Skipped() (records int, bytes uint64) { return r.skipped, r.skippedB }

// Replay is the recovery driver: it streams the surviving suffix
// [First, Next) from disk through a Cursor and hands every payload, in
// age order, to submit — typically Pipeline.SubmitEncoded of a fresh
// pipeline configured with FirstAge = First() and seeded from
// CheckpointState — and stops at the first error. Each payload is a
// fresh allocation the callee may keep (SubmitEncoded holds the bytes
// until the ticket resolves). Replaying through a pipeline attached to
// this log's reopened Writer is safe: re-appends of recovered ages are
// no-ops, and a checkpoint taken during the replay compacts only
// segments wholly below ages already replayed. Replay reads the files,
// so it must run before anything else removes them. It opens the
// segment where the scan found First()'s record, at that record, so
// nothing below the checkpoint is read twice.
func (r *Recovery) Replay(submit func(age uint64, payload []byte) error) error {
	if r.firstPath == "" {
		return nil // an empty suffix
	}
	c := &Cursor{dir: r.dir, expect: r.first}
	if err := c.openAt(r.firstPath, r.firstOff, r.first, r.next); err != nil {
		return fmt.Errorf("wal: replay: %w", err)
	}
	defer c.Close()
	for {
		age, payload, ok, err := c.Next(r.next)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if !ok {
			return nil
		}
		if err := submit(age, payload); err != nil {
			return fmt.Errorf("wal: replay age %d: %w", age, err)
		}
	}
}

// Writer reopens the log for appending at Next. The surviving tail
// segment is extended in place while it has room (or while it carries
// zero padding, which only a roll or Close may cut); otherwise a fresh
// segment starts at Next.
func (r *Recovery) Writer(opts Options) (*Writer, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	w := newWriter(r.dir, opts)
	w.next.Store(r.next)
	w.durable.Store(r.next)
	w.nbytes.Store(r.countB + r.skippedB)
	w.admittedB.Store(w.nbytes.Load()) // recovered history is durable: no open group
	if r.hasCkpt {
		w.ckptAge_.Store(r.ckptAge)
	}
	var length int64
	if r.lastPath != "" {
		st, err := os.Stat(r.lastPath)
		if err != nil {
			return nil, err
		}
		length = st.Size()
	}
	if r.lastPath != "" && (r.lastSize < opts.SegmentBytes || length > r.lastSize) {
		f, err := w.fs.OpenFile(r.lastPath, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		w.f, w.path = f, r.lastPath
		w.segSize, w.zeroEnd = r.lastSize, length
	} else if err := w.openSegment(r.next); err != nil {
		return nil, err
	}
	if err := w.fs.SyncDir(r.dir); err != nil {
		w.f.Close()
		return nil, err
	}
	w.startSyncer()
	return w, nil
}

// segment is one on-disk log file.
type segment struct {
	age  uint64
	path string
}

// listSegments returns the directory's segments sorted by first age.
// Files that do not match the segment naming scheme are ignored.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		var age uint64
		if n, err := fmt.Sscanf(e.Name(), "%016x.wal", &age); n != 1 || err != nil {
			continue
		}
		if fmt.Sprintf("%016x.wal", age) != e.Name() {
			continue
		}
		segs = append(segs, segment{age: age, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].age < segs[j].age })
	return segs, nil
}

// removeSegments deletes the given segment files (the torn-tail rule's
// "drop everything past the cut").
func removeSegments(dir string, segs []segment) error {
	for _, s := range segs {
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	if len(segs) > 0 {
		return syncDir(dir)
	}
	return nil
}
