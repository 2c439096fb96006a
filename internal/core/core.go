// Package core implements the paper's Ordered Write Back algorithm
// (OWB, §5) and Ordered Undo Log algorithm (OUL, §6). The paper's
// third contribution, OUL's lock-stealing variant (OUL-Steal, §6.1),
// is not implemented: see EXPERIMENTS.md.
//
// Both deploy the cooperative ordered execution model of §4:
// transactions may expose uncommitted state to higher-age transactions
// (data forwarding), conflicts are resolved by age (the predefined
// commit order, ACO), and aborts cascade along the chain of consumers
// of exposed data. The executor (package stm) drives them in
// ModeCooperative: workers expose transactions out of order and a
// flat-combining validator role commits them strictly in age order
// (Algorithm 5 of the paper).
//
// # Doom flags instead of blocking aborts
//
// The paper's pseudocode lets an aborter spin while its victim is in a
// TRANSIENT critical section. A direct transcription can deadlock
// (cycles of aborters waiting on each other's critical sections), so
// this implementation uses a sticky per-attempt doom flag: Abort sets
// the flag (counting the abort cause exactly once), then tries to
// claim the descriptor and perform the rollback itself; if the victim
// is inside its own critical section the claim fails and the victim is
// responsible for finalizing its own abort on exit. No abort operation
// ever blocks, which makes the wait-for graph acyclic.
//
// # Descriptor lifetime
//
// Descriptors are recycled through per-worker freelists
// (meta.TxnPool); one descriptor serves many attempts, each attempt
// being one *life* delimited by meta.StatusWord.Renew. The ABA
// immunity the original one-descriptor-per-attempt scheme provided is
// restored with generation stamps: OUL's lock words and reader slots
// hold packed meta.Refs (registry index + publishing generation), so
// a stale reference from a finished life is detected exactly and a
// claim CAS can never land on a recycled descriptor's new
// acquisition. Only an OUL descriptor's own rollback reads its undo
// log, so a final descriptor renews at once. OWB keeps pointer
// lock words — it only claims from nil and withdraws its pointer from
// every word before finalizing — but its dependency double-check
// compares packed (generation, status) snapshots so a reader cannot
// mistake a writer's next life for the one it registered against.
// See DESIGN.md §8.
//
// Engines used to be torn down after every batch, which bounded how
// long a stale reference could park in cold metadata. A long-lived
// stm.Pipeline reuses one engine for an unbounded stream, and no sweep
// runs over the lock table: what bounds OUL's reader slots is Retire,
// which scrubs every registration a retired life left (aborted
// attempts included), plus slot reuse, which treats a final or stale
// occupant as a free slot. OWB's commit, abort and cleanup paths clear
// every lock word and dependency reference they published.
package core
