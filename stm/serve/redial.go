package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DialOption configures a Client at Dial time.
type DialOption func(*dialCfg)

type dialCfg struct {
	redial     bool
	candidates []string
}

// WithNotLeaderRedial makes the client chase a leader hand-off
// transparently: a call answered CodeNotLeader is not resolved with
// the error but resubmitted to the new leader — the hint address the
// response carried when present, otherwise each candidate in turn —
// and resolves with the outcome there. Resubmission is safe by the
// NotLeader contract: the refusing server never submitted the payload,
// so no age was assigned and the transaction cannot commit twice.
//
// The original connection stays open (the old server may still answer
// reads); redirected calls ride one shared secondary connection to the
// current leader. Attempts are bounded per call with backoff; when
// they run out the call resolves with the last error. A copy of each
// in-flight payload is retained, by id, to make resubmission possible
// — the option's memory cost.
func WithNotLeaderRedial(candidates ...string) DialOption {
	return func(c *dialCfg) {
		c.redial = true
		c.candidates = candidates
	}
}

const (
	redialAttempts   = 6
	redialBackoff    = 10 * time.Millisecond
	redialBackoffMax = 250 * time.Millisecond
	redialTimeout    = 2 * time.Second
)

// redirector owns a client's not-leader follow-up: the shared
// connection to the current believed leader and the resubmission of
// redirected calls over it.
type redirector struct {
	origin     string // the address originally dialed (last-resort candidate)
	candidates []string

	mu   sync.Mutex
	cur  *Client // connection to the current believed leader
	next int     // round-robin cursor over candidates

	redials atomic.Uint64 // calls that were resubmitted at least once
	wg      sync.WaitGroup
}

func newRedirector(origin string, candidates []string) *redirector {
	return &redirector{origin: origin, candidates: candidates}
}

// resubmit chases one redirected call to the current leader. Runs on
// its own goroutine, spawned by the primary connection's read loop.
func (r *redirector) resubmit(call *Call, payload []byte, hint string) {
	defer r.wg.Done()
	r.redials.Add(1)
	backoff := redialBackoff
	var lastErr error = &Error{Code: CodeNotLeader, Msg: hint}
	for attempt := 0; attempt < redialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > redialBackoffMax {
				backoff = redialBackoffMax
			}
		}
		cl, err := r.conn(hint)
		if err != nil {
			lastErr = err
			continue
		}
		c2, err := cl.Submit(payload)
		if err != nil {
			lastErr = err
			r.drop(cl)
			continue
		}
		age, err := c2.Wait()
		if err == nil {
			call.resolve(age, nil)
			return
		}
		lastErr = err
		if errors.Is(err, ErrNotLeader) {
			// The believed leader demurred too — mid-election, or a
			// chain of hand-offs. Follow its hint (if any) and retry.
			hint, _ = LeaderHint(err)
			r.drop(cl)
			continue
		}
		// A real engine answer from the new leader (fault, canceled,
		// ...): that IS the call's outcome.
		call.resolve(age, err)
		return
	}
	call.resolve(0, fmt.Errorf("serve: redial exhausted after %d attempts: %w", redialAttempts, lastErr))
}

// conn returns the shared leader connection, dialing if needed: the
// hint first, then each candidate (round-robin), then the origin.
func (r *redirector) conn(hint string) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		return r.cur, nil
	}
	var targets []string
	if hint != "" {
		targets = append(targets, hint)
	}
	for i := 0; i < len(r.candidates); i++ {
		targets = append(targets, r.candidates[(r.next+i)%len(r.candidates)])
	}
	if len(r.candidates) > 0 {
		r.next = (r.next + 1) % len(r.candidates)
	}
	targets = append(targets, r.origin)
	var lastErr error
	for _, addr := range targets {
		ctx, cancel := context.WithTimeout(context.Background(), redialTimeout)
		cl, err := Dial(ctx, addr)
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		r.cur = cl
		return cl, nil
	}
	return nil, lastErr
}

// drop discards the shared connection if it is still cl (a NotLeader
// answer or write failure proved it wrong).
func (r *redirector) drop(cl *Client) {
	r.mu.Lock()
	if r.cur == cl {
		r.cur = nil
		defer cl.Close()
	}
	r.mu.Unlock()
}

// close waits out in-flight resubmissions and closes the shared
// leader connection.
func (r *redirector) close() {
	r.wg.Wait()
	r.mu.Lock()
	cur := r.cur
	r.cur = nil
	r.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}
