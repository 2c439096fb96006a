//go:build linux

package wal

import "syscall"

// Fdatasync flushes a segment's written records to stable storage.
// fdatasync is sufficient — and measurably cheaper than fsync — for
// the log: POSIX requires it to flush any metadata needed to retrieve
// the written data (a size change: a zero-ahead extension, or a roll's
// cut), and the only metadata it may skip is timestamps, which
// recovery never reads. Over blocks the zero-ahead already wrote, it
// flushes data alone.
func (f osFile) Fdatasync() error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}
