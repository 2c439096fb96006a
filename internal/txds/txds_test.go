package txds

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
)

// seqApply runs f as a single transaction on the sequential engine.
func seqApply(t *testing.T, f func(tx stm.Tx)) {
	t.Helper()
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(1, func(tx stm.Tx, age int) { f(tx) }); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapBasic(t *testing.T) {
	m := NewHashMap(64)
	seqApply(t, func(tx stm.Tx) {
		if _, ok := m.Get(tx, 5); ok {
			t.Error("found missing key")
		}
		if !m.Put(tx, 5, 50) {
			t.Error("put failed")
		}
		if v, ok := m.Get(tx, 5); !ok || v != 50 {
			t.Errorf("get = %d,%v", v, ok)
		}
		if !m.Put(tx, 5, 51) {
			t.Error("overwrite failed")
		}
		if v, _ := m.Get(tx, 5); v != 51 {
			t.Errorf("overwrite lost: %d", v)
		}
		if !m.Delete(tx, 5) {
			t.Error("delete failed")
		}
		if m.Delete(tx, 5) {
			t.Error("double delete succeeded")
		}
		if _, ok := m.Get(tx, 5); ok {
			t.Error("deleted key still present")
		}
	})
}

func TestHashMapReservedKeysPanic(t *testing.T) {
	// Reserved keys panic inside the transaction; the executor surfaces
	// that as a *stm.Fault.
	m := NewHashMap(8)
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []uint64{EmptyKey, TombKey} {
		_, err := ex.Run(1, func(tx stm.Tx, age int) { m.Get(tx, key) })
		var f *stm.Fault
		if !errors.As(err, &f) {
			t.Errorf("key %#x: expected fault, got %v", key, err)
		}
	}
}

// TestHashMapOracle replays a random op sequence against Go's map.
func TestHashMapOracle(t *testing.T) {
	f := func(seed uint64) bool {
		m := NewHashMap(256)
		oracle := make(map[uint64]uint64)
		r := rng.New(seed)
		good := true
		seqApply(t, func(tx stm.Tx) {
			for op := 0; op < 500; op++ {
				key := uint64(r.Intn(100) + 1)
				switch r.Intn(3) {
				case 0:
					val := r.Uint64()
					m.Put(tx, key, val)
					oracle[key] = val
				case 1:
					got, ok := m.Get(tx, key)
					want, wok := oracle[key]
					if ok != wok || (ok && got != want) {
						good = false
					}
				case 2:
					if m.Delete(tx, key) != (func() bool { _, ok := oracle[key]; return ok })() {
						good = false
					}
					delete(oracle, key)
				}
			}
		})
		if !good {
			return false
		}
		snap := m.Snapshot()
		if len(snap) != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if snap[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapFull(t *testing.T) {
	m := NewHashMap(8) // rounds to 8 slots
	seqApply(t, func(tx stm.Tx) {
		for k := uint64(1); k <= 8; k++ {
			if !m.Put(tx, k, k) {
				t.Fatalf("put %d failed before capacity", k)
			}
		}
		if m.Put(tx, 100, 1) {
			t.Error("put into full map succeeded")
		}
		if _, _, ok := m.PutIfAbsent(tx, 101, 1); ok {
			t.Error("PutIfAbsent into full map succeeded")
		}
		// Existing keys still updatable.
		if !m.Put(tx, 3, 33) {
			t.Error("overwrite in full map failed")
		}
	})
}

func TestHashMapPutIfAbsent(t *testing.T) {
	m := NewHashMap(32)
	seqApply(t, func(tx stm.Tx) {
		v, inserted, ok := m.PutIfAbsent(tx, 7, 70)
		if !ok || !inserted || v != 70 {
			t.Errorf("first PutIfAbsent = %d,%v,%v", v, inserted, ok)
		}
		v, inserted, ok = m.PutIfAbsent(tx, 7, 71)
		if !ok || inserted || v != 70 {
			t.Errorf("second PutIfAbsent = %d,%v,%v", v, inserted, ok)
		}
	})
}

func TestHashMapTombstoneReuse(t *testing.T) {
	m := NewHashMap(8)
	seqApply(t, func(tx stm.Tx) {
		for k := uint64(1); k <= 8; k++ {
			m.Put(tx, k, k)
		}
		m.Delete(tx, 4)
		if !m.Put(tx, 200, 9) {
			t.Error("tombstone slot not reused")
		}
		if v, ok := m.Get(tx, 200); !ok || v != 9 {
			t.Errorf("get after reuse = %d,%v", v, ok)
		}
	})
}

func TestSet(t *testing.T) {
	s := NewSet(32)
	seqApply(t, func(tx stm.Tx) {
		added, ok := s.Add(tx, 9)
		if !added || !ok {
			t.Error("first add failed")
		}
		added, ok = s.Add(tx, 9)
		if added || !ok {
			t.Error("duplicate add reported added")
		}
		if !s.Contains(tx, 9) || s.Contains(tx, 10) {
			t.Error("membership wrong")
		}
		if !s.Remove(tx, 9) || s.Remove(tx, 9) {
			t.Error("remove semantics wrong")
		}
	})
	if len(s.Snapshot()) != 0 {
		t.Error("snapshot not empty")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(16)
	seqApply(t, func(tx stm.Tx) {
		if _, ok := q.Dequeue(tx); ok {
			t.Error("dequeue from empty succeeded")
		}
		for i := uint64(1); i <= 16; i++ {
			if !q.Enqueue(tx, i) {
				t.Fatalf("enqueue %d failed", i)
			}
		}
		if q.Enqueue(tx, 99) {
			t.Error("enqueue into full queue succeeded")
		}
		if q.Len(tx) != 16 {
			t.Errorf("len = %d", q.Len(tx))
		}
		for i := uint64(1); i <= 16; i++ {
			v, ok := q.Dequeue(tx)
			if !ok || v != i {
				t.Fatalf("dequeue = %d,%v want %d", v, ok, i)
			}
		}
	})
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue(8)
	seqApply(t, func(tx stm.Tx) {
		for round := 0; round < 5; round++ {
			for i := uint64(0); i < 6; i++ {
				q.Enqueue(tx, uint64(round)*10+i)
			}
			for i := uint64(0); i < 6; i++ {
				v, ok := q.Dequeue(tx)
				if !ok || v != uint64(round)*10+i {
					t.Fatalf("round %d: dequeue = %d,%v", round, v, ok)
				}
			}
		}
	})
}

func TestListSortedOps(t *testing.T) {
	l := NewList(64)
	seqApply(t, func(tx stm.Tx) {
		for _, k := range []uint64{30, 10, 20, 50, 40} {
			ins, ok := l.Insert(tx, k, k*10)
			if !ins || !ok {
				t.Fatalf("insert %d = %v,%v", k, ins, ok)
			}
		}
		ins, ok := l.Insert(tx, 30, 333)
		if ins || !ok {
			t.Error("duplicate insert reported new")
		}
		if v, found := l.Get(tx, 30); !found || v != 333 {
			t.Errorf("get 30 = %d,%v", v, found)
		}
		if _, found := l.Get(tx, 35); found {
			t.Error("found absent key")
		}
		if !l.Remove(tx, 10) || l.Remove(tx, 10) {
			t.Error("remove semantics wrong")
		}
	})
	snap := l.Snapshot()
	want := []uint64{20, 30, 40, 50}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %v", snap)
	}
	for i, kv := range snap {
		if kv[0] != want[i] {
			t.Fatalf("order wrong: %v", snap)
		}
	}
}

func TestListPoolExhaustionAndReuse(t *testing.T) {
	l := NewList(4)
	seqApply(t, func(tx stm.Tx) {
		for k := uint64(1); k <= 4; k++ {
			if _, ok := l.Insert(tx, k, k); !ok {
				t.Fatalf("insert %d failed early", k)
			}
		}
		if _, ok := l.Insert(tx, 5, 5); ok {
			t.Error("insert past pool capacity succeeded")
		}
		l.Remove(tx, 2)
		if ins, ok := l.Insert(tx, 6, 6); !ins || !ok {
			t.Error("freed node not reusable")
		}
	})
}

// TestListOracle replays random sorted-set ops against Go's map.
func TestListOracle(t *testing.T) {
	f := func(seed uint64) bool {
		l := NewList(128)
		oracle := make(map[uint64]uint64)
		r := rng.New(seed)
		good := true
		seqApply(t, func(tx stm.Tx) {
			for op := 0; op < 300; op++ {
				key := uint64(r.Intn(60) + 1)
				switch r.Intn(3) {
				case 0:
					val := r.Uint64()
					l.Insert(tx, key, val)
					oracle[key] = val
				case 1:
					got, ok := l.Get(tx, key)
					want, wok := oracle[key]
					if ok != wok || (ok && got != want) {
						good = false
					}
				case 2:
					_, wok := oracle[key]
					if l.Remove(tx, key) != wok {
						good = false
					}
					delete(oracle, key)
				}
			}
		})
		if !good {
			return false
		}
		snap := l.Snapshot()
		if len(snap) != len(oracle) {
			return false
		}
		prev := uint64(0)
		for _, kv := range snap {
			if kv[0] <= prev || oracle[kv[0]] != kv[1] {
				return false
			}
			prev = kv[0]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestHashMapConcurrentOrdered inserts disjoint-by-age keys under OUL
// with several workers; the final contents must match exactly.
func TestHashMapConcurrentOrdered(t *testing.T) {
	const n = 300
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2} {
		m := NewHashMap(1024)
		ex, err := stm.NewExecutor(stm.Config{Algorithm: alg, Workers: 6})
		if err != nil {
			t.Fatal(err)
		}
		_, err = ex.Run(n, func(tx stm.Tx, age int) {
			key := uint64(age%50 + 1) // heavy key contention
			v, _ := m.Get(tx, key)
			m.Put(tx, key, v+1)
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		snap := m.Snapshot()
		var total uint64
		for _, v := range snap {
			total += v
		}
		if total != n {
			t.Fatalf("%v: total increments %d, want %d", alg, total, n)
		}
	}
}

// TestQueueConcurrentPipeline: each transaction enqueues its age; the
// queue must drain in exactly age order afterwards (ACO made the
// enqueues appear sequential).
func TestQueueConcurrentPipeline(t *testing.T) {
	const n = 200
	q := NewQueue(n)
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.OUL, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(n, func(tx stm.Tx, age int) {
		if !q.Enqueue(tx, uint64(age)) {
			panic("queue full")
		}
	}); err != nil {
		t.Fatal(err)
	}
	seqApply(t, func(tx stm.Tx) {
		for i := uint64(0); i < n; i++ {
			v, ok := q.Dequeue(tx)
			if !ok || v != i {
				t.Fatalf("dequeue %d = %d,%v", i, v, ok)
			}
		}
	})
}
