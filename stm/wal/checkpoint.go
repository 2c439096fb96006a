package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Checkpoint on-disk format. A checkpoint is two files:
//
// A snapshot file, `%016x.ckpt`, named by its frontier age:
//
//	offset 0  8 bytes  magic "OSTMCKP1"
//	offset 8  u64 LE   age (must match the file name)
//	offset 16 u32 LE   state length
//	offset 20 u32 LE   CRC-32C over (length, age, state) — record framing
//	offset 24 ...      state
//
// and the manifest, `CHECKPOINT`, that commits it:
//
//	offset 0  8 bytes  magic "OSTMMAN1"
//	offset 8  u64 LE   age of the committed checkpoint
//	offset 16 u32 LE   CRC-32C over the age field
//
// Both are written to a temp file, fsynced, renamed into place, and
// the directory synced — the manifest last, so its atomic rename is
// the commit point: a crash anywhere earlier leaves the previous
// checkpoint in force. Recovery treats the manifest as a hint, not an
// authority: it considers the manifest's age first, then every .ckpt
// file newest-first, and uses the first one whose frame verifies —
// so a torn manifest or a torn snapshot degrades recovery (to an
// older checkpoint, or to full replay), never blocks it.

const (
	ckptMagic     = "OSTMCKP1"
	manifestMagic = "OSTMMAN1"
	manifestName  = "CHECKPOINT"
	ckptHeader    = 24 // magic + age + length + crc
	manifestSize  = 20 // magic + age + crc
)

func checkpointPath(dir string, age uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.ckpt", age))
}

func manifestCRC(age uint64) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], age)
	return crc32.Checksum(b[:], crcTable)
}

// writeFileAtomic writes data to a temp file in dir, fsyncs it, and
// renames it to name. The rename is the commit point; the caller
// syncs the directory to make it survive a crash. The temp name is
// deterministic (`name.tmp`): the segment/checkpoint listers ignore
// it, so an orphan left by a crash or a failed rename is invisible to
// recovery and simply overwritten by the next attempt.
func writeFileAtomic(fs FS, dir, name string, data []byte) error {
	tmpPath := filepath.Join(dir, name+".tmp")
	tmp, err := fs.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := tmp.WriteAt(data, 0); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Fdatasync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmpPath, filepath.Join(dir, name)); err != nil {
		fs.Remove(tmpPath) // best effort; a surviving orphan is ignored
		return err
	}
	return nil
}

// writeCheckpointFile durably writes the snapshot file for age.
func writeCheckpointFile(fs FS, dir string, age uint64, state []byte) error {
	buf := make([]byte, 0, ckptHeader+len(state))
	buf = append(buf, ckptMagic...)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], age)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(state)))
	binary.LittleEndian.PutUint32(hdr[12:16], recordCRC(uint32(len(state)), age, state))
	buf = append(buf, hdr[:]...)
	buf = append(buf, state...)
	return writeFileAtomic(fs, dir, fmt.Sprintf("%016x.ckpt", age), buf)
}

// readCheckpointFile reads and verifies the snapshot file at path,
// expecting the age its name carries. Any framing violation returns an
// error; recovery treats it as "this checkpoint does not exist".
func readCheckpointFile(path string, wantAge uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < ckptHeader || string(data[:8]) != ckptMagic {
		return nil, &tornError{reason: "checkpoint header"}
	}
	age := binary.LittleEndian.Uint64(data[8:16])
	length := binary.LittleEndian.Uint32(data[16:20])
	crc := binary.LittleEndian.Uint32(data[20:24])
	if age != wantAge {
		return nil, &tornError{reason: "checkpoint age mismatch"}
	}
	state := data[ckptHeader:]
	if uint64(length) != uint64(len(state)) {
		return nil, &tornError{reason: "checkpoint length mismatch"}
	}
	if recordCRC(length, age, state) != crc {
		return nil, &tornError{reason: "checkpoint checksum mismatch"}
	}
	return state, nil
}

// writeManifest durably commits the checkpoint at age via atomic
// rename of the CHECKPOINT manifest.
func writeManifest(fs FS, dir string, age uint64) error {
	var buf [manifestSize]byte
	copy(buf[:8], manifestMagic)
	binary.LittleEndian.PutUint64(buf[8:16], age)
	binary.LittleEndian.PutUint32(buf[16:20], manifestCRC(age))
	return writeFileAtomic(fs, dir, manifestName, buf[:])
}

// readManifest returns the committed checkpoint age, or (0, false) if
// the manifest is absent, torn, or corrupt.
func readManifest(dir string) (uint64, bool) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || len(data) != manifestSize || string(data[:8]) != manifestMagic {
		return 0, false
	}
	age := binary.LittleEndian.Uint64(data[8:16])
	if binary.LittleEndian.Uint32(data[16:20]) != manifestCRC(age) {
		return 0, false
	}
	return age, true
}

// listCheckpoints returns the ages of the directory's snapshot files,
// sorted ascending. Files not matching the naming scheme are ignored.
func listCheckpoints(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ages []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		var age uint64
		if n, err := fmt.Sscanf(e.Name(), "%016x.ckpt", &age); n != 1 || err != nil {
			continue
		}
		if fmt.Sprintf("%016x.ckpt", age) != e.Name() {
			continue
		}
		ages = append(ages, age)
	}
	sort.Slice(ages, func(i, j int) bool { return ages[i] < ages[j] })
	return ages, nil
}

// Checkpoint durably records state as the application snapshot at
// frontier age: every record below age is folded into state, and
// recovery from this log may start at age and replay only the suffix.
//
// age must not exceed the log's append frontier, and everything below
// it is made durable first (the checkpoint must never claim records
// the log could lose). After the manifest commit, the two newest
// checkpoints are retained — the older as a fallback should the
// newest prove torn — and segments wholly below the older one are
// truncated, which is what bounds both disk usage and recovery time
// by the checkpoint interval.
func (w *Writer) Checkpoint(age uint64, state []byte) error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	if age > w.next.Load() {
		return fmt.Errorf("wal: checkpoint age %d beyond append frontier %d", age, w.next.Load())
	}
	if w.durable.Load() < age {
		if err := w.Sync(); err != nil {
			return err
		}
	}
	if err := writeCheckpointFile(w.fs, w.dir, age, state); err != nil {
		w.ioErrs.ckpt.Add(1)
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		w.ioErrs.ckpt.Add(1)
		return err
	}
	if err := writeManifest(w.fs, w.dir, age); err != nil {
		w.ioErrs.ckpt.Add(1)
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		w.ioErrs.ckpt.Add(1)
		return err
	}
	w.ckptAge_.Store(age)
	w.ckpts.Add(1)
	return w.pruneCheckpoints(age)
}

// CheckpointAge returns the age of the newest checkpoint this writer
// committed (0 when none).
func (w *Writer) CheckpointAge() uint64 { return w.ckptAge_.Load() }

// Checkpoints returns how many checkpoints this writer committed.
func (w *Writer) Checkpoints() uint64 { return w.ckpts.Load() }

// pruneCheckpoints enforces the retention rule after a commit at
// newest: keep the two newest checkpoints, delete older snapshot
// files, and truncate segments wholly below the *older* kept
// checkpoint. Truncating below the newest instead would make a torn
// newest checkpoint unrecoverable — the fallback checkpoint must keep
// the records above it.
func (w *Writer) pruneCheckpoints(newest uint64) error {
	ages, err := listCheckpoints(w.dir)
	if err != nil {
		return err
	}
	keepFloor := newest
	if n := len(ages); n >= 2 {
		keepFloor = ages[n-2] // older of the two newest
	}
	removed := false
	for _, a := range ages {
		if a < keepFloor {
			if err := w.fs.Remove(checkpointPath(w.dir, a)); err != nil {
				return err
			}
			removed = true
		}
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	// Segment i is wholly below keepFloor iff the next segment starts
	// at or below it (segment i's records all precede segs[i+1].age).
	// The current segment (and the tail in general) is never removed.
	var drop []segment
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].age <= keepFloor {
			drop = append(drop, segs[i])
		}
	}
	for _, s := range drop {
		if err := w.fs.Remove(s.path); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return w.fs.SyncDir(w.dir)
	}
	return nil
}
