package stm

import (
	"context"
	"fmt"
)

// TypedCodec is the typed durability bridge: it adapts a Req
// marshaler pair and a typed handler into the pipeline's Codec, so a
// WAL-backed pipeline can accept typed requests (SubmitPayloadT),
// latch their typed results (TicketOf[R]), and — because live
// execution and recovery replay both run the handler built from the
// decoded request — re-derive the same typed results when the log is
// replayed after a crash (SubmitEncodedT is the typed replay entry).
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
// untyped path (plain SubmitPayload/SubmitEncoded and the generic
// recovery Replay driver); use SubmitPayloadT/SubmitEncodedT to
// capture it.
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

// SubmitPayloadT is the typed durable submission: req is encoded
// through the pipeline's TypedCodec (the encoded form is what the WAL
// stores once the age commits), the handler's Func runs as the
// transaction — live execution and recovery replay share the decoded
// path by construction — and the returned TicketOf latches the typed
// result at commit. The pipeline's Config.Codec must be the matching
// *TypedCodec[Req, R].
func SubmitPayloadT[Req, R any](p *Pipeline, req Req) (*TicketOf[R], error) {
	return SubmitPayloadTCtx[Req, R](nil, p, req)
}

// SubmitPayloadTCtx is SubmitPayloadT with SubmitCtx's cancellable
// backpressure wait (nil ctx never cancels).
func SubmitPayloadTCtx[Req, R any](ctx context.Context, p *Pipeline, req Req) (*TicketOf[R], error) {
	c, err := typedCodecOf[Req, R](p)
	if err != nil {
		return nil, err
	}
	data, err := c.enc(req)
	if err != nil {
		return nil, fmt.Errorf("stm: encode payload: %w", err)
	}
	// Run the handler on the *decoded* round trip, never the caller's
	// original request: the wire form is what the WAL stores, so only
	// the decoded request is guaranteed to be re-derivable at replay —
	// a lossy encoder or canonicalizing decoder would otherwise make
	// live execution and recovery diverge silently.
	dreq, err := c.dec(data)
	if err != nil {
		return nil, fmt.Errorf("stm: decode payload: %w", err)
	}
	t := &TicketOf[R]{fn: c.handler(dreq)}
	if err := p.submitWith(ctx, &t.Ticket, t.run, data); err != nil {
		return nil, err
	}
	return t, nil
}

// SubmitEncodedT is the typed replay entry point: it submits a
// payload already in its wire form (a surviving WAL record) and
// latches the typed result the re-execution derives — replaying every
// surviving record through SubmitEncodedT of a fresh pipeline yields
// result-for-result the same TicketOf values the original run
// acknowledged, because both runs execute the same decoded handler at
// the same ages over the same predefined order. SubmitEncoded's
// buffer-retention contract applies unchanged.
func SubmitEncodedT[Req, R any](p *Pipeline, data []byte) (*TicketOf[R], error) {
	c, err := typedCodecOf[Req, R](p)
	if err != nil {
		return nil, err
	}
	req, err := c.dec(data)
	if err != nil {
		return nil, fmt.Errorf("stm: decode payload: %w", err)
	}
	t := &TicketOf[R]{fn: c.handler(req)}
	if err := p.submitWith(nil, &t.Ticket, t.run, data); err != nil {
		return nil, err
	}
	return t, nil
}
