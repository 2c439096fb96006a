package stm_test

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/wal"
)

// typedTransferCodec builds the typed durability bridge for the
// transfer workload: the handler returns the sender's post-transfer
// balance, so every age has a typed result that depends on the entire
// committed prefix — replay must re-derive each one exactly.
func typedTransferCodec(accounts []stm.TVar[uint64]) *stm.TypedCodec[transfer, uint64] {
	return stm.CodecOf(
		func(t transfer) ([]byte, error) {
			var b [8]byte
			binary.LittleEndian.PutUint32(b[0:4], t.from)
			binary.LittleEndian.PutUint32(b[4:8], t.to)
			return b[:], nil
		},
		func(data []byte) (transfer, error) {
			if len(data) != 8 {
				return transfer{}, fmt.Errorf("bad transfer payload length %d", len(data))
			}
			tr := transfer{
				from: binary.LittleEndian.Uint32(data[0:4]),
				to:   binary.LittleEndian.Uint32(data[4:8]),
			}
			if int(tr.from) >= len(accounts) || int(tr.to) >= len(accounts) {
				return transfer{}, fmt.Errorf("transfer %d→%d out of range", tr.from, tr.to)
			}
			return tr, nil
		},
		func(tr transfer) stm.Func[uint64] {
			return func(tx stm.Tx, age int) uint64 {
				amt := uint64(age%5) + 1
				bf := stm.ReadT(tx, &accounts[tr.from])
				if bf >= amt && tr.from != tr.to {
					stm.WriteT(tx, &accounts[tr.from], bf-amt)
					stm.WriteT(tx, &accounts[tr.to], stm.ReadT(tx, &accounts[tr.to])+amt)
					return bf - amt
				}
				return bf
			}
		},
	)
}

func newTypedAccounts(n int, balance uint64) []stm.TVar[uint64] {
	vs := stm.NewTVars[uint64](n)
	for i := range vs {
		vs[i].Store(balance)
	}
	return vs
}

// typedFold is the model oracle for the typed workload: the
// sequential fold over plain integers, returning both final balances
// and the per-age typed results.
func typedFold(n int, firstAge uint64) (balances []uint64, results []uint64) {
	balances = make([]uint64, durableAccounts)
	for i := range balances {
		balances[i] = 1000
	}
	results = make([]uint64, n)
	for i := 0; i < n; i++ {
		age := firstAge + uint64(i)
		tr := transferFor(age)
		amt := age%5 + 1
		if balances[tr.from] >= amt && tr.from != tr.to {
			balances[tr.from] -= amt
			balances[tr.to] += amt
		}
		results[i] = balances[tr.from]
	}
	return balances, results
}

func typedState(accounts []stm.TVar[uint64]) []uint64 {
	out := make([]uint64, len(accounts))
	for i := range accounts {
		out[i] = accounts[i].Load()
	}
	return out
}

// TestTypedDurableRoundTrip, for every ordered algorithm: stream
// typed requests through SubmitPayloadT into a WAL while concurrently
// snapshotting the directory mid-stream (the crash image), check
// every live typed result against the sequential fold, then recover
// the snapshot and replay it through SubmitEncodedT of a fresh
// pipeline — the recovered typed results and state must equal the
// sequential fold of the surviving prefix.
func TestTypedDurableRoundTrip(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 600
	}
	_, wantResults := typedFold(n, 0)
	for _, alg := range stm.OrderedAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			dir := t.TempDir()
			snapDir := t.TempDir()

			accounts := newTypedAccounts(durableAccounts, 1000)
			w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 4, SegmentBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			p, err := stm.NewPipeline(stm.Config{
				Algorithm: alg,
				Workers:   4,
				WAL:       w,
				Codec:     typedTransferCodec(accounts),
			})
			if err != nil {
				t.Fatal(err)
			}
			var snap sync.Once
			tks := make([]*stm.TicketOf[uint64], n)
			for age := 0; age < n; age++ {
				tk, err := stm.SubmitPayloadT[transfer, uint64](p, transferFor(uint64(age)))
				if err != nil {
					t.Fatal(err)
				}
				tks[age] = tk
				if age == n/2 {
					// Mid-stream crash image: wait for this age (so the
					// prefix is non-trivial), then copy the live log;
					// whatever the group commits already flushed survives
					// and the torn tail (if any) is truncated at recovery.
					if err := tk.Wait(); err != nil {
						t.Fatal(err)
					}
					snap.Do(func() { copyDirLive(t, dir, snapDir) })
				}
			}
			for age, tk := range tks {
				got, err := tk.Value()
				if err != nil {
					t.Fatalf("age %d: %v", age, err)
				}
				if got != wantResults[age] {
					t.Fatalf("live typed result at age %d = %d, want %d", age, got, wantResults[age])
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Recover the crash image and replay through the typed entry.
			rec, err := wal.Recover(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Count() == 0 {
				t.Fatal("snapshot recovered no records (crash point too early?)")
			}
			recAccounts := newTypedAccounts(durableAccounts, 1000)
			rp, err := stm.NewPipeline(stm.Config{
				Algorithm: alg,
				Workers:   4,
				Codec:     typedTransferCodec(recAccounts),
				FirstAge:  rec.First(),
			})
			if err != nil {
				t.Fatal(err)
			}
			rtks := make([]*stm.TicketOf[uint64], 0, rec.Count())
			if err := rec.Replay(func(age uint64, payload []byte) error {
				tk, err := stm.SubmitEncodedT[transfer, uint64](rp, payload)
				if err == nil {
					rtks = append(rtks, tk)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			for i, tk := range rtks {
				got, err := tk.Value()
				if err != nil {
					t.Fatalf("replayed age %d: %v", i, err)
				}
				if got != wantResults[i] {
					t.Fatalf("recovered typed result at age %d = %d, want %d (replay diverged)", i, got, wantResults[i])
				}
			}
			if err := rp.Close(); err != nil {
				t.Fatal(err)
			}
			wantBal, _ := typedFold(rec.Count(), 0)
			if !equalState(typedState(recAccounts), wantBal) {
				t.Fatalf("recovered state diverged from the sequential fold of %d records", rec.Count())
			}
		})
	}
}

// TestSubmitPayloadTCodecMismatch: the typed submission entry points
// must reject a pipeline whose codec is not the matching TypedCodec
// instantiation, and SubmitFunc must reject durable pipelines.
func TestSubmitPayloadTCodecMismatch(t *testing.T) {
	accounts := newAccounts(durableAccounts, 1000)
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: stm.OWB, Workers: 2,
		WAL: w, Codec: tfCodec{accounts: accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := stm.SubmitPayloadT[transfer, uint64](p, transferFor(0)); err == nil {
		t.Fatal("SubmitPayloadT must reject a non-TypedCodec pipeline")
	}
	if _, err := stm.SubmitEncodedT[transfer, uint64](p, make([]byte, 8)); err == nil {
		t.Fatal("SubmitEncodedT must reject a non-TypedCodec pipeline")
	}
	if _, err := stm.SubmitFunc(p, func(stm.Tx, int) uint64 { return 0 }); err != stm.ErrPayloadRequired {
		t.Fatalf("SubmitFunc on a durable pipeline returned %v, want ErrPayloadRequired", err)
	}
}
