package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Record is one recovered log entry: the encoded input payload of the
// transaction committed at Age.
type Record struct {
	Age     uint64
	Payload []byte
}

// Recovery is the result of scanning a log directory: the newest valid
// checkpoint (if any) plus the surviving contiguous record suffix at
// or above it, with any torn tail already truncated from disk. Replay
// feeds the suffix to a deterministic engine seeded from the
// checkpoint state; Writer reopens the log for appends where the
// suffix ends.
type Recovery struct {
	dir       string
	first     uint64
	next      uint64
	recs      []Record
	lastPath  string // surviving tail segment; "" when the directory held none
	lastSize  int64
	truncated bool

	hasCkpt   bool
	ckptAge   uint64
	ckptState []byte
	skipped   int    // records below the checkpoint, not retained for replay
	skippedB  uint64 // their framed bytes
}

// Recover scans the log in dir, truncates any torn tail, and returns
// the newest valid checkpoint plus the surviving record suffix.
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
// but not retained: Records and Replay expose only the suffix at or
// above the checkpoint.
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
		n, torn, err := r.readSegment(seg, &expect)
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
		r.skipped += len(r.recs)
		for _, rec := range r.recs {
			r.skippedB += uint64(recordSize(rec.Payload))
		}
		r.recs = nil
		r.lastPath, r.lastSize = "", 0
		r.first, r.next = r.ckptAge, r.ckptAge
		return nil
	}
	r.first = r.ckptAge
	return nil
}

// readSegment reads one segment's records, advancing *expect per good
// record. Records at or above the checkpoint age are retained in
// r.recs; older ones only anchor the chain and are counted as skipped.
// It returns the number of valid bytes and whether the segment was
// torn (in which case it has been truncated on disk at the last good
// record).
func (r *Recovery) readSegment(seg segment, expect *uint64) (int64, bool, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	size := st.Size()
	br := bufio.NewReaderSize(f, 1<<20)
	var offset int64
	for {
		age, payload, err := readRecord(br, size-offset)
		if err == io.EOF {
			return offset, false, nil
		}
		if err != nil || age != *expect {
			// Torn or corrupt tail: cut at the last good record.
			if terr := os.Truncate(seg.path, offset); terr != nil {
				return 0, false, terr
			}
			r.truncated = true
			return offset, true, nil
		}
		if r.hasCkpt && age < r.ckptAge {
			r.skipped++
			r.skippedB += uint64(recordSize(payload))
		} else {
			r.recs = append(r.recs, Record{Age: age, Payload: payload})
		}
		*expect = age + 1
		offset += recordSize(payload)
	}
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
func (r *Recovery) Count() int { return len(r.recs) }

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

// Records returns the surviving replay suffix in age order. The slice
// is the recovery's backing store; treat it as read-only.
func (r *Recovery) Records() []Record { return r.recs }

// Replay is the recovery driver: it hands every surviving payload, in
// age order, to submit — typically Pipeline.SubmitEncoded of a fresh
// pipeline configured with FirstAge = First() and seeded from
// CheckpointState — and stops at the first error. Replaying through a
// pipeline attached to this log's reopened Writer is safe: re-appends
// of recovered ages are no-ops.
func (r *Recovery) Replay(submit func(age uint64, payload []byte) error) error {
	for _, rec := range r.recs {
		if err := submit(rec.Age, rec.Payload); err != nil {
			return fmt.Errorf("wal: replay age %d: %w", rec.Age, err)
		}
	}
	return nil
}

// Writer reopens the log for appending at Next. The surviving tail
// segment is extended in place while it has room; otherwise a fresh
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
	w.nbytes.Store(totalBytes(r.recs) + r.skippedB)
	w.admittedB.Store(w.nbytes.Load()) // recovered history is durable: no open group
	if r.hasCkpt {
		w.ckptAge_.Store(r.ckptAge)
	}
	if r.lastPath != "" && r.lastSize < opts.SegmentBytes {
		f, err := w.fs.OpenFile(r.lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f = f
		w.segSize = r.lastSize
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

func totalBytes(recs []Record) uint64 {
	var n uint64
	for _, rec := range recs {
		n += uint64(recordSize(rec.Payload))
	}
	return n
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
