package serve_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/serve"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

const svcAccounts = 64

// Payload forms: 8 bytes = transfer(from, to); 1 byte 0xFE = stall
// (sleep, used to park the commit frontier for deadline tests); 1
// byte 0xFD = fault (panic).
func transferPayload(from, to uint32) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], from)
	binary.LittleEndian.PutUint32(b[4:8], to)
	return b[:]
}

func decodeSvcBody(accounts []stm.Var, data []byte) (stm.Body, []*stm.Var, error) {
	if len(data) == 1 {
		switch data[0] {
		case 0xFE:
			return func(tx stm.Tx, _ int) {
				time.Sleep(300 * time.Millisecond)
				_ = tx.Read(&accounts[0])
			}, []*stm.Var{&accounts[0]}, nil
		case 0xFD:
			return func(stm.Tx, int) { panic("wire fault") }, []*stm.Var{&accounts[0]}, nil
		}
	}
	if len(data) != 8 {
		return nil, nil, fmt.Errorf("bad payload length %d", len(data))
	}
	from := binary.LittleEndian.Uint32(data[0:4])
	to := binary.LittleEndian.Uint32(data[4:8])
	if int(from) >= len(accounts) || int(to) >= len(accounts) {
		return nil, nil, fmt.Errorf("transfer %d→%d out of range", from, to)
	}
	body := func(tx stm.Tx, age int) {
		amt := uint64(age%5) + 1
		bf := tx.Read(&accounts[from])
		if bf >= amt && from != to {
			tx.Write(&accounts[from], bf-amt)
			tx.Write(&accounts[to], tx.Read(&accounts[to])+amt)
		}
	}
	return body, []*stm.Var{&accounts[from], &accounts[to]}, nil
}

// svcCodec is the unsharded test codec.
type svcCodec struct{ accounts []stm.Var }

func (c svcCodec) Encode(payload any) ([]byte, error) { return payload.([]byte), nil }
func (c svcCodec) Decode(data []byte) (stm.Body, error) {
	body, _, err := decodeSvcBody(c.accounts, data)
	return body, err
}

// svcShardCodec is the sharded test codec (declares the touched Vars).
type svcShardCodec struct{ accounts []stm.Var }

func (c svcShardCodec) Encode(payload any) ([]byte, error) { return payload.([]byte), nil }
func (c svcShardCodec) Decode(data []byte) (stm.Access, stm.Body, error) {
	if len(data) == 8 {
		from := binary.LittleEndian.Uint32(data[0:4])
		to := binary.LittleEndian.Uint32(data[4:8])
		if int(from) >= len(c.accounts) || int(to) >= len(c.accounts) {
			return stm.Access{}, nil, fmt.Errorf("transfer %d→%d out of range", from, to)
		}
		body, _, err := decodeSvcBody(c.accounts, data)
		return stm.Touches(&c.accounts[from], &c.accounts[to]), body, err
	}
	body, vars, err := decodeSvcBody(c.accounts, data)
	if err != nil {
		return stm.Access{}, nil, err
	}
	return stm.Touches(vars[0]), body, nil
}

type agedPayload struct {
	age     uint64
	payload []byte
}

// foldPayloads is the sequential oracle: apply the transfer semantics
// in global-age order over plain integers.
func foldPayloads(t *testing.T, balances []uint64, recs []agedPayload) {
	t.Helper()
	sort.Slice(recs, func(i, j int) bool { return recs[i].age < recs[j].age })
	for i, r := range recs {
		if i > 0 && recs[i-1].age == r.age {
			t.Fatalf("duplicate age %d", r.age)
		}
		if len(r.payload) != 8 {
			continue
		}
		from := binary.LittleEndian.Uint32(r.payload[0:4])
		to := binary.LittleEndian.Uint32(r.payload[4:8])
		amt := uint64(r.age%5) + 1
		if balances[from] >= amt && from != to {
			balances[from] -= amt
			balances[to] += amt
		}
	}
}

func newSvcAccounts() []stm.Var {
	vs := stm.NewVars(svcAccounts)
	for i := range vs {
		vs[i].Store(1000)
	}
	return vs
}

func fetchState(t *testing.T, addr string) []uint64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/state: %s: %s", resp.Status, data)
	}
	vars := stm.NewVars(svcAccounts)
	if err := stm.RestoreVars(vars, data); err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, svcAccounts)
	for i := range vars {
		out[i] = vars[i].Load()
	}
	return out
}

func startPipelineServer(t *testing.T, accounts []stm.Var) (*serve.Server, *stm.Pipeline, string) {
	t.Helper()
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: stm.OWB,
		Workers:   4,
		Codec:     svcCodec{accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{
		Pipeline: p,
		State: func() ([]byte, error) {
			p.WaitStable()
			return stm.SnapshotVars(accounts), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv, p, srv.Addr().String()
}

// TestServeCommitOrderMultiConn drives several concurrent connections
// and checks the full contract: every transaction commits, every
// connection sees its responses in commit order, and the union of
// (age, payload) pairs folds to exactly the server's final state.
func TestServeCommitOrderMultiConn(t *testing.T) {
	const conns, perConn = 4, 300
	accounts := newSvcAccounts()
	srv, p, addr := startPipelineServer(t, accounts)
	defer p.Close()
	defer shutdownNow(srv)

	var mu sync.Mutex
	var all []agedPayload
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := serve.Dial(context.Background(), addr)
			if err != nil {
				t.Error(err)
				return
			}
			calls := make([]*serve.Call, 0, perConn)
			payloads := make([][]byte, 0, perConn)
			for i := 0; i < perConn; i++ {
				k := uint64(ci*perConn + i)
				pl := transferPayload(uint32((k*7)%svcAccounts), uint32((k*13+1)%svcAccounts))
				call, err := c.Submit(pl)
				if err != nil {
					t.Error(err)
					break
				}
				calls = append(calls, call)
				payloads = append(payloads, pl)
			}
			for i, call := range calls {
				age, err := call.Wait()
				if err != nil {
					t.Errorf("conn %d call %d: %v", ci, i, err)
					continue
				}
				mu.Lock()
				all = append(all, agedPayload{age, payloads[i]})
				mu.Unlock()
			}
			if v := c.OrderViolations(); v != 0 {
				t.Errorf("conn %d: %d commit-order violations", ci, v)
			}
			if err := c.Close(); err != nil {
				t.Errorf("conn %d close: %v", ci, err)
			}
		}(ci)
	}
	wg.Wait()
	if len(all) != conns*perConn {
		t.Fatalf("committed %d of %d", len(all), conns*perConn)
	}
	model := make([]uint64, svcAccounts)
	for i := range model {
		model[i] = 1000
	}
	foldPayloads(t, model, all)
	got := fetchState(t, addr)
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("account %d: server has %d, sequential fold has %d", i, got[i], model[i])
		}
	}
}

// shutdownNow tears a test server down without waiting forever for
// streams a failing test may have left open.
func shutdownNow(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// TestServeDeadline submits a stalling transaction under a deadline
// far shorter than its own commit latency: the response must resolve
// early with the canceled wire error, while the transaction itself —
// whose age was assigned — still commits, keeping the rest of the
// stream live and ordered.
func TestServeDeadline(t *testing.T) {
	accounts := newSvcAccounts()
	srv, p, addr := startPipelineServer(t, accounts)
	defer p.Close()
	defer shutdownNow(srv)

	c, err := serve.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	hurried, err := c.SubmitTimeout([]byte{0xFE}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := c.Submit(transferPayload(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hurried.Wait(); !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("hurried wait = %v, want ErrCanceled", err)
	}
	var werr *serve.Error
	if _, err := hurried.Wait(); !errors.As(err, &werr) || werr.Code != serve.CodeCanceled {
		t.Fatalf("hurried error = %#v, want CodeCanceled", err)
	}
	// The canceled wait abandoned the response, not the transaction:
	// its age was assigned, so the next transaction still commits
	// after it in order.
	if _, err := relaxed.Wait(); err != nil {
		t.Fatalf("relaxed: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeFaultMapping submits a panicking body and checks the
// faulting transaction answers CodeFault while the collateral answers
// map to CodeStopped, both reconstructing the engine sentinels.
func TestServeFaultMapping(t *testing.T) {
	accounts := newSvcAccounts()
	srv, p, addr := startPipelineServer(t, accounts)
	defer p.Close()
	defer shutdownNow(srv)

	c, err := serve.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	var calls []*serve.Call
	for i := 0; i < 5; i++ {
		call, err := c.Submit(transferPayload(uint32(i), uint32(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	boom, err := c.Submit([]byte{0xFD})
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range calls {
		if _, err := call.Wait(); err != nil {
			t.Fatalf("pre-fault call: %v", err)
		}
	}
	_, berr := boom.Wait()
	var werr *serve.Error
	if !errors.As(berr, &werr) || werr.Code != serve.CodeFault {
		t.Fatalf("fault answered %v, want CodeFault", berr)
	}
	// Later submissions on the stopped pipeline answer CodeStopped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		call, err := c.Submit(transferPayload(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		_, serr := call.Wait()
		if serr == nil {
			// Raced the stop; the age committed before the fault cut.
			if time.Now().After(deadline) {
				t.Fatal("pipeline never stopped")
			}
			continue
		}
		if !errors.Is(serr, stm.ErrStopped) {
			t.Fatalf("post-fault submit answered %v, want ErrStopped", serr)
		}
		if !errors.As(serr, &werr) || werr.Code != serve.CodeStopped {
			t.Fatalf("post-fault code = %v, want CodeStopped", serr)
		}
		break
	}
	c.Close()
}

// TestServeDrain checks Shutdown's contract: new streams are refused,
// in-flight streams keep answering until their client half-closes.
func TestServeDrain(t *testing.T) {
	accounts := newSvcAccounts()
	srv, p, addr := startPipelineServer(t, accounts)
	defer p.Close()

	c, err := serve.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := c.Submit(transferPayload(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Wait(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()

	// New connections are refused once draining.
	refused := false
	for i := 0; i < 100; i++ {
		c2, err := serve.Dial(context.Background(), addr)
		if err != nil {
			refused = true
			break
		}
		c2.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !refused {
		t.Error("dial kept succeeding during drain")
	}

	// The in-flight stream still answers.
	mid, err := c.Submit(transferPayload(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mid.Wait(); err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeShardedCrashRestart is the end-to-end determinism
// acceptance test: N concurrent connections against a 2-shard durable
// router with cross-shard requests, a crash-consistent WAL snapshot
// taken mid-stream ("kill"), recovery from the snapshot, a restarted
// server continuing the stream, and the final state checked against
// the sequential fold of the log — with every client observing its
// responses in commit order throughout.
func TestServeShardedCrashRestart(t *testing.T) {
	const conns, perConn = 4, 150
	dir := filepath.Join(t.TempDir(), "wal")
	snap := filepath.Join(t.TempDir(), "snap")

	accounts := newSvcAccounts()
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.New(shard.Config{
		Shards:   2,
		Pipeline: stm.Config{Algorithm: stm.OWB, Workers: 2},
		WAL:      w,
		Codec:    svcShardCodec{accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{Sharded: sp})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	// Phase 1: stream from all connections; snapshot the live WAL dir
	// mid-stream (the crash image a kill -9 would leave).
	var snapOnce sync.Once
	var wg sync.WaitGroup
	var mu sync.Mutex
	var phase1 []agedPayload
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := serve.Dial(context.Background(), addr)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perConn; i++ {
				k := uint64(ci*perConn + i)
				// Arbitrary pairs over the whole space: a healthy share
				// lands on both shards (cross-shard fenced requests).
				pl := transferPayload(uint32((k*17)%svcAccounts), uint32((k*29+3)%svcAccounts))
				call, err := c.Submit(pl)
				if err != nil {
					t.Error(err)
					break
				}
				age, werr := call.Wait()
				if werr != nil {
					t.Errorf("conn %d: %v", ci, werr)
					break
				}
				mu.Lock()
				phase1 = append(phase1, agedPayload{age, pl})
				mu.Unlock()
				if i == perConn/2 && ci == 0 {
					snapOnce.Do(func() { copyDirLive(t, dir, snap) })
				}
			}
			if v := c.OrderViolations(); v != 0 {
				t.Errorf("conn %d: %d commit-order violations", ci, v)
			}
			if err := c.Close(); err != nil {
				t.Error(err)
			}
		}(ci)
	}
	wg.Wait()
	snapOnce.Do(func() { copyDirLive(t, dir, snap) }) // belt and braces
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sp.CrossShard() == 0 {
		t.Fatal("workload produced no cross-shard transactions")
	}

	// Recover the crash image: replayed state must equal the
	// sequential fold of the surviving records.
	rec, err := wal.Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() == 0 {
		t.Fatal("crash image recovered no records (snapshot too early?)")
	}
	w2, err := rec.Writer(wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	accounts2 := newSvcAccounts()
	sp2, err := shard.New(shard.Config{
		Shards:   2,
		Pipeline: stm.Config{Algorithm: stm.OWB, Workers: 2, FirstAge: rec.First()},
		WAL:      w2,
		Codec:    svcShardCodec{accounts2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(func(_ uint64, payload []byte) error {
		_, err := sp2.SubmitEncoded(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := sp2.Drain(); err != nil {
		t.Fatal(err)
	}
	model := make([]uint64, svcAccounts)
	for i := range model {
		model[i] = 1000
	}
	var recovered []agedPayload
	if err := rec.Replay(func(age uint64, payload []byte) error {
		recovered = append(recovered, agedPayload{age, payload})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	foldPayloads(t, model, recovered)
	for i := range accounts2 {
		if got := accounts2[i].Load(); got != model[i] {
			t.Fatalf("account %d after replay: %d, fold says %d", i, got, model[i])
		}
	}

	// Restart the server on the recovered router and continue the
	// stream; the final state must fold from the full recovered log.
	srv2, err := serve.NewServer(serve.Config{Sharded: sp2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := serve.Dial(context.Background(), srv2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var phase2 []agedPayload
	for i := 0; i < 100; i++ {
		pl := transferPayload(uint32((uint64(i)*31)%svcAccounts), uint32((uint64(i)*37+5)%svcAccounts))
		call, err := c.Submit(pl)
		if err != nil {
			t.Fatal(err)
		}
		age, werr := call.Wait()
		if werr != nil {
			t.Fatal(werr)
		}
		if age < rec.Next() {
			t.Fatalf("post-restart age %d below recovery frontier %d", age, rec.Next())
		}
		phase2 = append(phase2, agedPayload{age, pl})
	}
	if v := c.OrderViolations(); v != 0 {
		t.Fatalf("%d commit-order violations after restart", v)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	final := make([]uint64, svcAccounts)
	for i := range accounts2 {
		final[i] = accounts2[i].Load()
	}
	foldPayloads(t, model, phase2) // fold the continuation onto the replayed model
	for i := range final {
		if final[i] != model[i] {
			t.Fatalf("account %d after restart: %d, fold says %d", i, final[i], model[i])
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyDirLive clones a directory that may be concurrently appended to
// (torn tails in the copy are expected and welcome) — the established
// crash-image idiom from the stm durability tests.
func copyDirLive(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			// A checkpoint's temp file, renamed since ReadDir: a crash
			// at the listing would have lost it as well.
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
