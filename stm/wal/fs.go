package wal

import "os"

// File is the writable-file surface of the durable path: segment and
// checkpoint files are written, made durable, and closed through it.
type File interface {
	// WriteAt writes p at offset off, as io.WriterAt does: a write
	// shorter than p returns an error. The writer places every record
	// and every zero-fill by offset.
	WriteAt(p []byte, off int64) (n int, err error)
	// Fdatasync flushes the file's written data (and the metadata
	// needed to retrieve it, i.e. a size change) to stable storage.
	// Implementations without fdatasync use a full fsync.
	Fdatasync() error
	Close() error
}

// FS is the filesystem surface of the durable path. Every write-side
// operation the Writer performs — opening segments, appending,
// syncing, the checkpoint rename commit, pruning, directory syncs —
// flows through it, so a test FS (see internal/faultfs) can inject
// I/O failures deterministically. Options.FS selects the
// implementation; nil means OS, the passthrough backed by package os.
//
// Recovery's read-side scan (and its torn-tail truncation) runs on the
// real filesystem: fault injection targets the live writer, not the
// post-crash reader.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory so entry creation/removal/rename
	// survives a crash. EINVAL from a filesystem that cannot sync
	// directories must be treated as success.
	SyncDir(dir string) error
}

// OS is the passthrough FS backed by package os. It adds no
// indirection cost on the hot path: interface method calls do not
// allocate, and the one File boxing happens per segment open, off the
// append path.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error { return syncDir(dir) }

type osFile struct{ *os.File }
