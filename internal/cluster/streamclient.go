package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

// ErrStreamTruncated marks a measure stream that ended without a
// terminal done (or error) frame: the backend died, the connection was
// severed, or a proxy cut the body mid-chunk. Cells delivered before
// the cut are good — the determinism contract makes them bit-identical
// wherever they were computed — so the scheduler keeps them and
// re-dispatches only the remainder.
var ErrStreamTruncated = errors.New("cluster: measure stream truncated")

// streamDecoders recycles stream decoders, with their read and payload
// buffers and event storage, across leases. A Client serves several
// pullers at once, so each stream takes a decoder of its own.
var streamDecoders = sync.Pool{New: func() any { return service.NewStreamDecoder(nil) }}

// requestCellBytes sizes a request frame's buffer per cell: two names,
// presence bytes, two varints and a float64.
const requestCellBytes = 64

// MeasureStream posts req to /v1/measure?stream=1 and invokes onCell
// for every cell frame as it arrives, in backend completion order.
// Keep-alive frames are consumed internally. A nil return means the
// terminal done frame arrived and every requested cell was delivered; a
// stream severed before the terminal frame (including mid-frame)
// returns an error wrapping ErrStreamTruncated; an in-band error frame,
// or a reply that is not a frame stream at all, comes back as a backend
// error. An onCell error aborts the stream and is returned as-is.
//
// The cell onCell receives is the stream decoder's storage: it is valid
// only until onCell returns.
//
// The exchange's wall time, to the end of the stream, feeds the
// client's latency histogram.
func (c *Client) MeasureStream(ctx context.Context, req *service.MeasureRequest, onCell func(sc *service.StreamCell) error) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	// The request goes out as one frame. Its buffer is the request's
	// own, not pooled: the transport may still read a body after Do
	// returns. A cell encodes to well under requestCellBytes.
	body := service.AppendMeasureRequest(make([]byte, 0, requestCellBytes*(len(req.Cells)+1)), req)
	start := time.Now()
	defer func() { c.lat.Observe(time.Since(start)) }()
	resp, err := c.send(ctx, http.MethodPost, "/v1/measure?stream=1", service.StreamContentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != service.StreamContentType {
		return &backendError{Backend: c.base,
			Msg: fmt.Sprintf("stream reply has Content-Type %q, want %q", ct, service.StreamContentType)}
	}

	dec := streamDecoders.Get().(*service.StreamDecoder)
	dec.Reset(resp.Body)
	defer func() {
		dec.Reset(nil) // drop the body; the buffers stay for the next lease
		streamDecoders.Put(dec)
	}()
	delivered := 0
	for {
		ev, err := dec.Next()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// The body ended (cleanly or mid-frame) before a terminal
				// frame — the stream-truncation signature.
				return fmt.Errorf("cluster: %s: %w after %d cells", c.base, ErrStreamTruncated, delivered)
			}
			// Malformed or oversized frames mean the byte stream itself was
			// damaged in flight; classify with truncation — transient, and
			// the delivered prefix is still good.
			return fmt.Errorf("cluster: %s: %w: %v", c.base, ErrStreamTruncated, err)
		}
		switch {
		case ev.Cell != nil:
			if ev.Cell.Index < 0 || ev.Cell.Index >= len(req.Cells) {
				return &backendError{Backend: c.base,
					Msg: fmt.Sprintf("stream cell index %d out of range (sent %d cells)", ev.Cell.Index, len(req.Cells))}
			}
			if err := onCell(ev.Cell); err != nil {
				return err
			}
			delivered++
		case ev.Error != "":
			return &backendError{Backend: c.base, Msg: "stream error: " + ev.Error}
		case ev.Done != nil:
			if delivered != len(req.Cells) {
				return &backendError{Backend: c.base,
					Msg: fmt.Sprintf("stream done after %d cells, want %d", delivered, len(req.Cells))}
			}
			return nil
		default:
			// Header and keep-alive frames carry no cells; skip them.
		}
	}
}
