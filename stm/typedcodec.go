package stm

import (
	"context"
	"fmt"
)

// TypedCodec is the typed durability bridge: it adapts a Req
// marshaler pair and a typed handler into the pipeline's Codec, so a
// WAL-backed pipeline can accept typed requests (encoded with Encode,
// submitted with SubmitEncodedT), latch their typed results
// (TicketOf[R]), and — because live execution and recovery replay both
// run the handler built from the decoded request — re-derive the same
// typed results when the log is replayed after a crash.
//
// The replay-determinism obligation carries over unchanged from
// Codec: unmarshal must be deterministic, and the handler must build
// a Func that is a deterministic function of (age, memory).
type TypedCodec[Req, R any] struct {
	enc     func(Req) ([]byte, error)
	dec     func([]byte) (Req, error)
	handler func(Req) Func[R]
}

// CodecOf builds a TypedCodec from a Req marshaler pair (any wire
// format: hand-rolled framing, encoding/binary, proto marshal
// functions) and the handler that turns a decoded request into its
// value-returning transaction.
func CodecOf[Req, R any](
	encode func(Req) ([]byte, error),
	decode func([]byte) (Req, error),
	handler func(Req) Func[R],
) *TypedCodec[Req, R] {
	if encode == nil || decode == nil || handler == nil {
		panic("stm: CodecOf requires non-nil encode, decode and handler")
	}
	return &TypedCodec[Req, R]{enc: encode, dec: decode, handler: handler}
}

// Encode implements Codec: the payload must be a Req.
func (c *TypedCodec[Req, R]) Encode(payload any) ([]byte, error) {
	req, ok := payload.(Req)
	if !ok {
		var z Req
		return nil, fmt.Errorf("stm: typed codec expects %T payloads, got %T", z, payload)
	}
	return c.enc(req)
}

// Decode implements Codec, reconstructing the transaction body from
// the wire form. The result value is computed and discarded on this
// untyped path (SubmitEncoded, SubmitCtx and the generic recovery
// Replay driver); use SubmitEncodedT to capture it.
func (c *TypedCodec[Req, R]) Decode(data []byte) (Body, error) {
	req, err := c.dec(data)
	if err != nil {
		return nil, err
	}
	fn := c.handler(req)
	return func(tx Tx, age int) { fn(tx, age) }, nil
}

// typedCodecOf resolves the pipeline's codec as the matching
// TypedCodec instantiation.
func typedCodecOf[Req, R any](p *Pipeline) (*TypedCodec[Req, R], error) {
	c, ok := p.cfg.Codec.(*TypedCodec[Req, R])
	if !ok {
		var zq Req
		var zr R
		return nil, fmt.Errorf("stm: Config.Codec is %T, not the *stm.TypedCodec[%T, %T] this call requires", p.cfg.Codec, zq, zr)
	}
	return c, nil
}

// SubmitEncodedT is the typed submission of an encoded request — live
// (bytes from the TypedCodec's Encode) and at recovery (a surviving
// WAL record) alike. The handler runs on the *decoded* request, never
// the caller's original: the wire form is what the WAL stores, so
// only the decoded request is re-derivable at replay, and a lossy
// encoder or canonicalizing decoder cannot make live execution and
// recovery diverge silently. The returned TicketOf latches the typed
// result at commit, so replaying every surviving record through
// SubmitEncodedT of a fresh pipeline yields result-for-result the same
// values the original run acknowledged. The pipeline's Config.Codec
// must be the matching *TypedCodec[Req, R]; ctx and the
// buffer-retention rule are Request.Encoded's under SubmitCtx.
func SubmitEncodedT[Req, R any](ctx context.Context, p *Pipeline, data []byte) (*TicketOf[R], error) {
	c, err := typedCodecOf[Req, R](p)
	if err != nil {
		return nil, err
	}
	req, err := c.dec(data)
	if err != nil {
		return nil, fmt.Errorf("stm: decode payload: %w", err)
	}
	t := &TicketOf[R]{fn: c.handler(req)}
	if _, err := p.submitOne(ctx, &t.Ticket, t.run, data); err != nil {
		return nil, err
	}
	return t, nil
}
