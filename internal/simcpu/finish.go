package simcpu

import "math"

// finishCooperative exposes a completed OWB/OUL transaction
// and frees the core; ordered commits drain through the validator
// service.
func (s *sim) finishCooperative(c int, t int64) {
	cs := &s.cores[c]
	tx := cs.tx
	var cost int64
	if s.algo == OWB {
		// Expose: validate, lock the write-set, publish.
		cost = s.p.PerEntryVal*int64(len(tx.reads)) + s.p.LockEntry*int64(len(tx.writes))
		for _, a := range tx.writes {
			l := s.lock(a)
			if liveTx(l.writer) && l.writer != tx {
				if tx.age < l.writer.age {
					s.doom(l.writer, t) // W2→W1
				} else {
					s.doom(tx, t) // W1→W2
					s.restart(c, t+cost)
					return
				}
			}
		}
		for _, e := range tx.reads {
			l := s.lock(e.addr)
			if l.version != e.ver && l.writer != tx {
				s.doom(tx, t)
				s.restart(c, t+cost)
				return
			}
		}
		for _, a := range tx.writes {
			l := s.lock(a)
			l.version++
			l.writer = tx
		}
	} else {
		cost = 2 // OUL try-commit: one status transition
	}
	if tx.doomed {
		s.restart(c, t+cost)
		return
	}
	tx.exposed = true
	tx.expTime = t + cost
	tx.core = -1
	s.exposedAt[tx.age] = tx
	cs.tx = nil
	cs.state = coreIdle
	s.resume(c, t+cost)
	s.runValidator(t + cost)
}

// runValidator commits exposed transactions in age order through the
// serialized validator service (the flat-combining role of
// Algorithm 5).
func (s *sim) runValidator(t int64) {
	for {
		tx, ok := s.exposedAt[s.committed]
		if !ok {
			return
		}
		start := max64(s.valFree, max64(tx.expTime, t))
		var cost int64
		if s.algo == OWB {
			cost = s.p.CommitBase + s.p.PerEntryVal*int64(len(tx.reads)) + s.p.LockEntry*int64(len(tx.writes))
		} else {
			cost = s.p.CommitBase
		}
		tc := start + cost
		invalid := tx.doomed
		if !invalid && s.algo == OWB {
			for _, e := range tx.reads {
				l := s.lock(e.addr)
				if l.version != e.ver && l.writer != tx {
					invalid = true
					break
				}
			}
		}
		delete(s.exposedAt, tx.age)
		if invalid {
			// Reachable re-execution: the next free core picks it up
			// with priority; the commit frontier stalls meanwhile.
			s.doom(tx, tc)
			s.finalizeAbort(tx, tc)
			s.valFree = tc
			s.retryLow = append(s.retryLow, tx)
			s.wakeDispatchers(tc)
			return
		}
		tx.final = true
		s.releaseLocks(tx)
		s.wakeLockWaiters(tx, tc)
		s.committed++
		s.commits++
		s.valFree = tc
		if tc > s.endTime {
			s.endTime = tc
		}
		s.wakeDispatchers(tc)
	}
}

// finishBlocked handles ordered TL2/NOrec/UndoLog: the worker stalls
// until its commit turn.
func (s *sim) finishBlocked(c int, t int64) {
	cs := &s.cores[c]
	tx := cs.tx
	if s.committed != tx.age {
		cs.state = coreStalled
		s.turnWait[tx.age] = c
		return
	}
	delete(s.turnWait, tx.age)
	cost := s.p.CommitBase + s.p.LockEntry*int64(len(tx.writes))
	invalid := tx.doomed
	if !invalid && (s.algo == OrderedTL2 || s.algo == OrderedNOrec || s.algo == OrderedUndoLogInvis) {
		cost += s.p.PerEntryVal * int64(len(tx.reads))
		for _, e := range tx.reads {
			l := s.lock(e.addr)
			if l.version != e.ver && l.writer != tx {
				invalid = true
				break
			}
		}
	}
	if invalid {
		// Sweep interfering writers off the read-set before
		// re-executing at the turn (their rollbacks bump versions
		// *before* the fresh reads, so validation converges).
		for _, e := range tx.reads {
			l := s.lock(e.addr)
			if liveTx(l.writer) && l.writer != tx {
				s.doom(l.writer, t+cost)
			}
		}
		s.restart(c, t+cost)
		return
	}
	s.commitEffects(tx, t+cost)
	cs.tx = nil
	cs.state = coreIdle
	s.resume(c, t+cost)
	if w, ok := s.turnWait[s.committed]; ok {
		s.wake(w, t+cost)
	}
}

// finishUnordered handles plain TL2/NOrec/UndoLog commits.
func (s *sim) finishUnordered(c int, t int64) {
	cs := &s.cores[c]
	tx := cs.tx
	cost := s.p.CommitBase + s.p.LockEntry*int64(len(tx.writes))
	start := t
	if s.algo == NOrec && len(tx.writes) > 0 {
		// NOrec serializes writers through the global sequence lock.
		start = max64(t, s.valFree)
	}
	invalid := tx.doomed
	if !invalid && (s.algo == TL2 || s.algo == NOrec || s.algo == UndoLogInvis) {
		cost += s.p.PerEntryVal * int64(len(tx.reads))
		for _, e := range tx.reads {
			l := s.lock(e.addr)
			if l.version != e.ver && l.writer != tx {
				invalid = true
				break
			}
		}
	}
	tc := start + cost
	if invalid {
		s.restart(c, tc)
		return
	}
	if s.algo == NOrec && len(tx.writes) > 0 {
		s.valFree = tc
	}
	s.commitEffects(tx, tc)
	cs.tx = nil
	cs.state = coreIdle
	s.resume(c, tc)
}

// commitEffects publishes a committed transaction's writes in virtual
// metadata and advances the order.
func (s *sim) commitEffects(tx *simTx, t int64) {
	s.gclock++
	for _, a := range tx.writes {
		l := s.lock(a)
		l.version = s.gclock
		if l.writer == tx {
			l.writer = nil
		}
	}
	tx.final = true
	s.releaseLocks(tx)
	s.wakeLockWaiters(tx, t)
	if s.algo.Ordered() {
		s.committed++
	}
	s.commits++
	if t > s.endTime {
		s.endTime = t
	}
	s.wakeDispatchers(t)
}

// finishLite submits the transaction to the TCM and stalls the worker
// until the grant (the paper: "worker threads poll and stall").
func (s *sim) finishLite(c int, t int64) {
	cs := &s.cores[c]
	tx := cs.tx
	tx.expTime = t
	s.tcmQueue[tx.age] = tx
	cs.state = coreStalled
	s.runTCM(t)
}

// sigFalseConflictProb estimates the probability that two Bloom
// signatures of r reads and w writes intersect spuriously.
func (s *sim) sigFalseConflictProb(r, w int) float64 {
	bits := float64(s.p.SigBits)
	if bits <= 0 {
		bits = 64
	}
	fw := 1 - math.Pow(1-1/bits, float64(2*w)) // fraction of set bits in the write sig
	return 1 - math.Pow(1-fw, float64(2*r))
}

// runTCM serves submissions in age order.
func (s *sim) runTCM(t int64) {
	for {
		tx, ok := s.tcmQueue[s.committed]
		if !ok {
			return
		}
		delete(s.tcmQueue, tx.age)
		tg := max64(s.tcmFree, max64(tx.expTime, t)) + s.p.TCMService
		s.tcmFree = tg
		conflict := false
		for _, e := range tx.reads {
			if s.lock(e.addr).version != e.ver {
				conflict = true // true conflict
				break
			}
		}
		if !conflict {
			// False conflicts: one signature test per commit that
			// happened during this transaction's execution window.
			window := s.gclock - tx.snap
			p := s.sigFalseConflictProb(len(tx.reads), len(tx.writes))
			for i := int64(0); i < window; i++ {
				if s.r.Float64() < p {
					conflict = true
					break
				}
			}
		}
		c := tx.core
		if conflict {
			tx.doomed = true
			s.finalizeAbort(tx, tg)
			fresh := &simTx{age: tx.age, core: c, snap: s.gclock}
			s.cores[c].tx = fresh
			s.cores[c].opIdx = 0
			s.cores[c].state = coreRunning
			s.resume(c, tg+s.p.RetryBackoff)
			return // frontier stalls until resubmission
		}
		// Grant: worker performs the write-back.
		wb := s.p.LockEntry * int64(len(tx.writes))
		s.commitEffects(tx, tg+wb)
		s.cores[c].tx = nil
		s.cores[c].state = coreIdle
		s.resume(c, tg+wb)
	}
}

// wakeDispatchers releases window-stalled and halted cores so they
// can pick up newly unblocked work (including priority retries).
func (s *sim) wakeDispatchers(t int64) {
	for _, c := range s.winWait {
		s.cores[c].state = coreIdle
		s.wake(c, t)
	}
	s.winWait = s.winWait[:0]
	if len(s.retryLow) > 0 {
		for c := range s.cores {
			if s.cores[c].halted {
				s.cores[c].halted = false
				s.wake(c, t)
			}
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
