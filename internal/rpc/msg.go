package rpc

import (
	"context"
	"fmt"

	"jiffy/internal/codec"
	"jiffy/internal/wire"
)

// CallMsg is the control-plane call: it encodes req with the message
// codec, performs the call, and decodes the reply into resp (which may
// be nil when no body is expected). Both bodies travel in pooled
// buffers; the codec copies out whatever the decoded reply keeps.
func (c *Client) CallMsg(ctx context.Context, method uint16, req, resp any) error {
	payload, err := codec.Append(wire.GetBuf(), req)
	if err != nil {
		wire.PutBuf(payload)
		return fmt.Errorf("rpc: encode %s: %w", methodLabel(method), err)
	}
	out, pooled, err := c.CallRaw(ctx, method, payload, nil)
	wire.PutBuf(payload)
	if err == nil && resp != nil {
		if err = codec.Unmarshal(out, resp); err != nil {
			err = fmt.Errorf("rpc: decode %s reply: %w", methodLabel(method), err)
		}
	}
	if pooled {
		wire.PutBuf(out)
	}
	return err
}

// EncodeMsg encodes a control-plane reply into a pooled buffer, which
// the rpc layer recycles once the response frame is written (see
// Response).
func EncodeMsg(v any) ([]byte, error) {
	b, err := codec.Append(wire.GetBuf(), v)
	if err != nil {
		wire.PutBuf(b)
		return nil, err
	}
	return b, nil
}

// ServeMsg runs one control-plane handler: it decodes payload into a
// Req, calls fn, and encodes fn's reply with EncodeMsg. A handler
// error is returned as is, with no body.
func ServeMsg[Req, Resp any](payload []byte, fn func(Req) (Resp, error)) ([]byte, error) {
	var req Req
	if err := codec.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	resp, err := fn(req)
	if err != nil {
		return nil, err
	}
	return EncodeMsg(resp)
}
