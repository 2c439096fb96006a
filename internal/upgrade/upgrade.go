// Package upgrade turns one HTTP/1.1 request into a raw byte stream on
// its TCP connection. The client asks for a protocol by name with
// "Connection: Upgrade" and "Upgrade: <name>"; the server answers
// "101 Switching Protocols", takes the connection over from net/http,
// and from then on both ends speak that protocol's framing directly on
// the socket. The submit wire (stm/serve) and the replication stream
// (stm/repl) both open their streams this way, on the listener that
// also serves their plain HTTP routes.
package upgrade

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Dial connects to addr, sends "method target" asking to switch to
// proto, and waits for the 101 answer. ctx bounds the connect and the
// handshake; the stream outlives it. Anything other than 101 is an
// error quoting the server's status line and the start of its body.
//
// Read the stream through the returned reader (of size bufSize): it
// already holds whatever the server sent behind the 101 head. Write it
// to the connection.
func Dial(ctx context.Context, addr, method, target, proto string, bufSize int) (*net.TCPConn, *bufio.Reader, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	conn := nc.(*net.TCPConn)
	// A ctx that ends mid-handshake unblocks the write or read below.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	br, err := handshake(conn, addr, method, target, proto, bufSize)
	if !stop() && err == nil {
		err = ctx.Err() // the deadline may be set already: the stream is unusable
	}
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, br, nil
}

func handshake(conn net.Conn, addr, method, target, proto string, bufSize int) (*bufio.Reader, error) {
	req := method + " " + target + " HTTP/1.1\r\nHost: " + addr +
		"\r\nConnection: Upgrade\r\nUpgrade: " + proto + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(conn, bufSize)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		return nil, fmt.Errorf("server answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if !hasToken(resp.Header, "Upgrade", proto) {
		return nil, fmt.Errorf("server switched to %q, not %q", resp.Header.Get("Upgrade"), proto)
	}
	return br, nil
}

// Accept switches r's connection to proto. A request that does not ask
// for proto is answered 426 Upgrade Required and an error returned;
// otherwise the connection is taken over from w, answered 101 Switching
// Protocols, and returned with a reader (of size bufSize, or the
// server's own when that is smaller) holding whatever the client sent
// behind its request. Either way r has been answered: on an error the
// handler just returns.
//
// net/http neither waits for nor closes a connection taken over. The
// caller closes it; when r's server runs with a Tracker, the Tracker
// can close it too.
func Accept(w http.ResponseWriter, r *http.Request, proto string, bufSize int) (net.Conn, *bufio.Reader, error) {
	if !r.ProtoAtLeast(1, 1) || !hasToken(r.Header, "Connection", "upgrade") || !hasToken(r.Header, "Upgrade", proto) {
		w.Header().Set("Connection", "Upgrade")
		w.Header().Set("Upgrade", proto)
		http.Error(w, "upgrade to "+proto+" required", http.StatusUpgradeRequired)
		return nil, nil, errors.New("upgrade: not requested")
	}
	nc, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, nil, err
	}
	var conn net.Conn = nc
	if t, _ := r.Context().Value(trackerKey{}).(*Tracker); t != nil {
		if conn = t.add(nc); conn == nil {
			nc.Close()
			return nil, nil, errors.New("upgrade: server closed")
		}
	}
	conn.SetDeadline(time.Time{})
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+proto+"\r\n\r\n"); err != nil {
		conn.Close()
		return nil, nil, err
	}
	// A larger reader passes its reads straight through rw.Reader once
	// that has handed over what it buffered.
	return conn, bufio.NewReaderSize(rw.Reader, bufSize), nil
}

// Tracker keeps the connections Accept took over from one http.Server,
// so that its owner can close them: install BaseContext as the server's
// BaseContext. The zero value is ready to use.
type Tracker struct {
	mu     sync.Mutex
	closed bool
	conns  map[*trackedConn]struct{}
}

type trackerKey struct{}

// BaseContext is an http.Server BaseContext that puts t in reach of
// Accept.
func (t *Tracker) BaseContext(net.Listener) context.Context {
	return context.WithValue(context.Background(), trackerKey{}, t)
}

// CloseAll closes every tracked connection, and every one Accept takes
// over from now on.
func (t *Tracker) CloseAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for c := range t.conns {
		c.Conn.Close()
	}
}

// add tracks nc, returning it wrapped; nil once CloseAll has run.
func (t *Tracker) add(nc net.Conn) net.Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if t.conns == nil {
		t.conns = make(map[*trackedConn]struct{})
	}
	c := &trackedConn{Conn: nc, t: t}
	t.conns[c] = struct{}{}
	return c
}

// trackedConn leaves its Tracker when closed.
type trackedConn struct {
	net.Conn
	t *Tracker
}

func (c *trackedConn) Close() error {
	c.t.mu.Lock()
	delete(c.t.conns, c)
	c.t.mu.Unlock()
	return c.Conn.Close()
}

// hasToken reports whether a comma-separated header lists token.
func hasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for t := range strings.SplitSeq(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}
