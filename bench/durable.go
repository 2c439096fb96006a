package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/wal"
)

// copyLog copies a live log directory file by file. A checkpoint
// committing underneath may rename its temporaries away or prune a
// segment between the listing and the read; temporaries are no part of
// the durable state and are skipped, and a vanished file restarts the
// copy from a fresh listing.
func copyLog(src, dst string) error {
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return err
		}
		if last = copyFiles(src, dst); last == nil || !errors.Is(last, fs.ErrNotExist) {
			return last
		}
	}
	return fmt.Errorf("copy %s: directory kept changing: %w", src, last)
}

func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// truncateLog cuts the log in dir at age durable: every byte of a
// record at or past it goes, as a crash would take whatever the last
// completed fsync did not cover. A kill leaves the OS cache in the
// files, so the copy alone proves nothing; discarding the unflushed
// tail here is what makes the recovery below a crash recovery.
func truncateLog(dir string, durable uint64) error {
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		return err
	}
	if durable < segs[0].FirstAge {
		return fmt.Errorf("truncate %s: durable age %d below the log's first age %d", dir, durable, segs[0].FirstAge)
	}
	cur, err := wal.NewCursor(dir, segs[0].FirstAge)
	if err != nil {
		return err
	}
	defer cur.Close()
	// Walk the durable records to find where age `durable` starts: the
	// segment holding it and the framed bytes before it.
	idx, offset := 0, int64(0)
	for {
		age, payload, ok, err := cur.Next(durable)
		if err != nil {
			return fmt.Errorf("truncate %s: %w", dir, err)
		}
		if !ok {
			break
		}
		if idx+1 < len(segs) && age == segs[idx+1].FirstAge {
			idx, offset = idx+1, 0
		}
		offset += wal.FrameSize(payload)
	}
	if idx+1 < len(segs) && durable == segs[idx+1].FirstAge {
		idx, offset = idx+1, 0
	}
	if err := os.Truncate(segs[idx].Path, offset); err != nil {
		return err
	}
	for _, s := range segs[idx+1:] {
		if err := os.Remove(s.Path); err != nil {
			return err
		}
	}
	return nil
}

// recovery is what the crash step measured and what it claims.
type recovery struct {
	scanMS     float64 // wal.Recover alone
	totalMS    float64 // Recover + checkpoint restore + suffix replay to drained
	replayed   int
	replayRate float64
	next       uint64   // Recovery.Next(): the recovered prefix is [0, next)
	state      []uint64 // recovered balances; must equal the fold of that prefix
}

// crashAndRecover is the durable workload's last step: force a
// checkpoint, acknowledge exactly txns more transactions, clone the log
// without closing it, cut the clone at Writer.Durable(), and time a
// restart from the clone.
func crashAndRecover(st *stack, txns int) (recovery, error) {
	var r recovery
	if _, err := st.pipe.Checkpoint(); err != nil {
		return r, fmt.Errorf("forced checkpoint: %w", err)
	}
	runQuota(st, txns)
	if err := st.pipe.Drain(); err != nil {
		return r, err
	}
	durable := st.w.Durable()
	clone := st.walDir + "-crash"
	defer os.RemoveAll(clone)
	if err := copyLog(st.walDir, clone); err != nil {
		return r, err
	}
	if err := truncateLog(clone, durable); err != nil {
		return r, err
	}

	t0 := time.Now()
	rec, err := wal.Recover(clone)
	if err != nil {
		return r, fmt.Errorf("recover: %w", err)
	}
	r.scanMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	b := newBank(st.spec.accounts, nil)
	if rec.HasCheckpoint() {
		if err := stm.RestoreVars(b.accounts, rec.CheckpointState()); err != nil {
			return r, err
		}
	}
	w, err := rec.Writer(walOptions(nil))
	if err != nil {
		return r, err
	}
	defer w.Close()
	p, err := stm.NewPipeline(st.pipeConfig(b, w, rec.First(), nil))
	if err != nil {
		return r, err
	}
	defer p.Close()
	tReplay := time.Now()
	err = rec.Replay(func(_ uint64, payload []byte) error {
		_, err := p.SubmitEncoded(payload)
		return err
	})
	if err != nil {
		return r, err
	}
	if err := p.Drain(); err != nil {
		return r, err
	}
	r.totalMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	r.replayed = rec.Count()
	if s := time.Since(tReplay).Seconds(); s > 0 {
		r.replayRate = float64(r.replayed) / s
	}
	r.next = rec.Next()
	r.state = b.balances()
	return r, nil
}

// appendProbe times a bare Writer.Append loop from outside: sync
// policy none, so it is the cost of framing and buffering one record.
func appendProbe(dir string, payload []byte) (float64, error) {
	defer os.RemoveAll(dir)
	w, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		return 0, err
	}
	const n = 200000
	t0 := now()
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, payload); err != nil {
			w.Close()
			return 0, err
		}
	}
	ns := float64(now()-t0) / n
	return ns, w.Close()
}
