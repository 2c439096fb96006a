package serve_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/serve"
)

// startGatedServer runs a pipeline server whose gate refuses with
// NotLeader (naming leaderAddr) until opened.
func startGatedServer(t *testing.T, accounts []stm.Var, leaderAddr string) (*serve.Server, *stm.Pipeline, string, *atomic.Bool) {
	t.Helper()
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: stm.OWB,
		Workers:   4,
		Codec:     svcCodec{accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	var open atomic.Bool
	srv, err := serve.NewServer(serve.Config{
		Pipeline: p,
		Gate: func() error {
			if open.Load() {
				return nil
			}
			return &serve.NotLeaderError{Leader: leaderAddr}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv, p, srv.Addr().String(), &open
}

// TestGateNotLeader checks the refusal path end to end: the typed
// error round-trips the wire (errors.Is, CodeOf, and the leader hint)
// and the connection stays usable for subsequent requests.
func TestGateNotLeader(t *testing.T) {
	accounts := newSvcAccounts()
	lsrv, lp, laddr := startPipelineServer(t, accounts)
	defer lp.Close()
	defer shutdownNow(lsrv)

	fsrv, fp, faddr, _ := startGatedServer(t, newSvcAccounts(), laddr)
	defer fp.Close()
	defer shutdownNow(fsrv)

	c, err := serve.Dial(context.Background(), faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		call, err := c.Submit(transferPayload(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		_, err = call.Wait()
		if !errors.Is(err, serve.ErrNotLeader) {
			t.Fatalf("call %d: %v, want NotLeader", i, err)
		}
		if serve.CodeOf(err) != serve.CodeNotLeader {
			t.Fatalf("call %d: code %v, want CodeNotLeader", i, serve.CodeOf(err))
		}
		if hint, ok := serve.LeaderHint(err); !ok || hint != laddr {
			t.Fatalf("call %d: hint %q (ok=%v), want %q", i, hint, ok, laddr)
		}
	}
}

// TestRedialFollowsHint submits through a gated server with redial
// enabled: the call must resolve on the hinted leader, transparently.
func TestRedialFollowsHint(t *testing.T) {
	accounts := newSvcAccounts()
	lsrv, lp, laddr := startPipelineServer(t, accounts)
	defer lp.Close()
	defer shutdownNow(lsrv)

	fsrv, fp, faddr, _ := startGatedServer(t, newSvcAccounts(), laddr)
	defer fp.Close()
	defer shutdownNow(fsrv)

	c, err := serve.Dial(context.Background(), faddr, serve.WithNotLeaderRedial())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 20
	calls := make([]*serve.Call, 0, n)
	for i := 0; i < n; i++ {
		call, err := c.Submit(transferPayload(uint32(i%svcAccounts), uint32((i+1)%svcAccounts)))
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	seen := make(map[uint64]bool)
	for i, call := range calls {
		age, err := call.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if seen[age] {
			t.Fatalf("age %d resolved twice", age)
		}
		seen[age] = true
	}
	if c.Redials() == 0 {
		t.Fatal("no redials recorded despite NotLeader answers")
	}
	// All n transactions must have landed on the leader, exactly once.
	lp.WaitStable()
	if got := lp.Submitted(); got != n {
		t.Fatalf("leader saw %d submissions, want %d", got, n)
	}
}

// TestRedialExhausts bounds the chase: with the hint dead and the
// origin forever refusing, the call must fail with the underlying
// NotLeader rather than hang.
func TestRedialExhausts(t *testing.T) {
	fsrv, fp, faddr, _ := startGatedServer(t, newSvcAccounts(), "127.0.0.1:1")
	defer fp.Close()
	defer shutdownNow(fsrv)

	c, err := serve.Dial(context.Background(), faddr, serve.WithNotLeaderRedial())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call, err := c.Submit(transferPayload(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := call.Wait(); !errors.Is(err, serve.ErrNotLeader) {
		t.Fatalf("exhausted redial resolved %v, want wrapped NotLeader", err)
	}
}
