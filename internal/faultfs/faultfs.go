// Package faultfs is a deterministic fault injector behind the
// wal.FS interface: a seeded, schedule-driven filesystem that fails
// (or delays) selected operations with the error classes a real disk
// produces — transient and persistent EIO, ENOSPC, short writes,
// stuck fdatasyncs, failed renames. Because the schedule is keyed on
// per-class operation counts, a (seed, workload) pair replays the
// same fault sequence on every run — the property the chaos harness
// (internal/harness/chaos) builds its safety assertions on, and the
// same determinism-by-construction that makes the engine's own
// replay exact.
package faultfs

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm/wal"
)

// Op classifies the filesystem operations faults can target.
type Op int

const (
	OpOpen Op = iota
	OpWrite
	OpSync // File.Fdatasync
	OpRename
	OpRemove
	OpTruncate
	OpSyncDir
	// OpZero is a write of nothing but zero bytes: the WAL's zero-ahead
	// fill of its live segment. It is counted apart from OpWrite, so an
	// OpWrite schedule's N-th write is the N-th write of records.
	OpZero
	numOps
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "fsync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpSyncDir:
		return "dirsync"
	case OpZero:
		return "zero"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Plan is one scheduled fault: starting at the N-th operation of
// class Op (1-based, counted per class), Count consecutive matching
// operations misbehave.
type Plan struct {
	Op  Op
	N   uint64 // fire on the N-th matching op (1-based)
	Err error  // error to inject; nil delays only
	// Count is how many consecutive matching operations fail from N
	// on: 1 models a transient error (the retry succeeds), larger
	// counts outlast bounded retries, and Count < 0 is persistent —
	// the device never recovers for this class.
	Count int
	// Path, when non-empty, restricts the plan to operations whose
	// path contains it (e.g. "CHECKPOINT" to fail only the manifest
	// rename).
	Path string
	// Short, on OpWrite or OpZero, writes half the buffer through before
	// reporting Err — a short write with real bytes on disk, the
	// torn-record shape recovery must cut.
	Short bool
	// Delay stalls the operation before it (mis)behaves — a stuck
	// fdatasync when combined with nil Err.
	Delay time.Duration
}

// FS implements wal.FS over a base FS, injecting the scheduled
// faults. It is safe for concurrent use.
type FS struct {
	base  wal.FS
	mu    sync.Mutex
	plans []Plan
	count [numOps]uint64 // operations seen, per class
	shots atomic.Uint64  // faults actually injected
	log   []string
}

// New returns an injector over base (nil means wal.OS) executing the
// given plans.
func New(base wal.FS, plans ...Plan) *FS {
	if base == nil {
		base = wal.OS
	}
	return &FS{base: base, plans: plans}
}

// FromSeed derives a deterministic 1–3 fault schedule from seed,
// mixing error classes (EIO, ENOSPC, short writes), transient vs
// persistent shapes, and occasional sync delays. Each plan's trigger
// count N is drawn from a per-class range sized to the op volume a
// few-thousand-transaction group-committed run actually produces —
// one flush write and at most one fsync per sync group, one open per
// segment roll — so schedules land inside the run instead of beyond
// its end.
func FromSeed(base wal.FS, seed uint64) *FS {
	r := rng.New(seed)
	n := 1 + r.Intn(3)
	plans := make([]Plan, 0, n)
	for i := 0; i < n; i++ {
		var p Plan
		var lo, hi int
		switch r.Intn(6) {
		case 0:
			p, lo, hi = Plan{Op: OpWrite, Err: syscall.EIO}, 5, 120
		case 1:
			p, lo, hi = Plan{Op: OpWrite, Err: syscall.EIO, Short: true}, 5, 120
		case 2:
			p, lo, hi = Plan{Op: OpSync, Err: syscall.EIO}, 2, 40
		case 3:
			p, lo, hi = Plan{Op: OpSync, Err: syscall.EIO, Delay: time.Duration(r.Range(1, 10)) * time.Millisecond}, 2, 40
		case 4:
			// Open #1 is the initial segment; later opens are rolls.
			p, lo, hi = Plan{Op: OpOpen, Err: syscall.ENOSPC}, 2, 10
		default:
			p, lo, hi = Plan{Op: OpRename, Err: syscall.EIO}, 1, 3
		}
		p.N = uint64(r.Range(lo, hi))
		switch r.Intn(3) {
		case 0:
			p.Count = 1 // transient: one failure, retry succeeds
		case 1:
			p.Count = r.Range(2, 8) // outlasts small retry budgets
		default:
			p.Count = -1 // persistent
		}
		plans = append(plans, p)
	}
	return New(base, plans...)
}

// Injected returns how many operations were actually failed or
// delayed so far.
func (fs *FS) Injected() uint64 { return fs.shots.Load() }

// Log returns a human-readable record of every injected fault, in
// order.
func (fs *FS) Log() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.log...)
}

// check counts one operation of class op against the schedule and
// returns the fault to inject, if any.
func (fs *FS) check(op Op, path string) (delay time.Duration, short bool, err error) {
	fs.mu.Lock()
	fs.count[op]++
	n := fs.count[op]
	for i := range fs.plans {
		p := &fs.plans[i]
		if p.Op != op || n < p.N || p.Count == 0 {
			continue
		}
		if p.Count > 0 && n >= p.N+uint64(p.Count) {
			continue
		}
		if p.Path != "" && !strings.Contains(path, p.Path) {
			continue
		}
		delay, short, err = p.Delay, p.Short, p.Err
		fs.shots.Add(1)
		fs.log = append(fs.log, fmt.Sprintf("%s#%d %s: delay=%v short=%v err=%v",
			op, n, path, delay, short, err))
		break
	}
	fs.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return delay, short, err
}

func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	if _, _, err := fs.check(OpOpen, name); err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := fs.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, name: name, f: f}, nil
}

func (fs *FS) Rename(oldpath, newpath string) error {
	if _, _, err := fs.check(OpRename, newpath); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return fs.base.Rename(oldpath, newpath)
}

func (fs *FS) Remove(name string) error {
	if _, _, err := fs.check(OpRemove, name); err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	return fs.base.Remove(name)
}

func (fs *FS) Truncate(name string, size int64) error {
	if _, _, err := fs.check(OpTruncate, name); err != nil {
		return &os.PathError{Op: "truncate", Path: name, Err: err}
	}
	return fs.base.Truncate(name, size)
}

func (fs *FS) SyncDir(dir string) error {
	if _, _, err := fs.check(OpSyncDir, dir); err != nil {
		return &os.PathError{Op: "syncdir", Path: dir, Err: err}
	}
	return fs.base.SyncDir(dir)
}

// file wraps a base file, routing writes and syncs through the
// schedule.
type file struct {
	fs   *FS
	name string
	f    wal.File
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	op := OpZero
	for _, b := range p {
		if b != 0 {
			op = OpWrite
			break
		}
	}
	_, short, err := f.fs.check(op, f.name)
	if err != nil {
		if short && len(p) > 1 {
			n, werr := f.f.WriteAt(p[:len(p)/2], off)
			if werr != nil {
				return n, werr
			}
			return n, &os.PathError{Op: "write", Path: f.name, Err: err}
		}
		return 0, &os.PathError{Op: "write", Path: f.name, Err: err}
	}
	return f.f.WriteAt(p, off)
}

func (f *file) Fdatasync() error {
	if _, _, err := f.fs.check(OpSync, f.name); err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.name, Err: err}
	}
	return f.f.Fdatasync()
}

func (f *file) Close() error { return f.f.Close() }
