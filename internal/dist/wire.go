package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message kinds carried in the envelope.
const (
	kindCall = iota + 1
	kindReply
	kindPing
	kindPong
)

// envelope is the one message type of the protocol, carried as the
// payload of a CRC frame in a fixed binary layout (all integers
// big-endian):
//
//	kind     1 byte
//	ID       8 bytes
//	TraceID  8 bytes
//	SpanID   8 bytes
//	errLen   4 bytes
//	Err      errLen bytes
//	Payload  the rest of the frame
//
// Calls carry the encoded input in Payload; replies carry the encoded
// output, or a non-empty Err. Pings and pongs carry nothing but the ID.
// Payloads are written by the value codec (codec.go).
//
// TraceID and SpanID propagate the causal trace in-band on calls:
// TraceID names the client's distributed trace and SpanID the client
// attempt span that carried this call, so the server-side request span
// continues the trace as that attempt's child. Both are zero on
// untraced calls and on replies.
type envelope struct {
	Kind    byte
	ID      uint64
	TraceID uint64
	SpanID  uint64
	Err     string
	Payload []byte
}

// envelopeFixedSize is the envelope's length before the error string.
const envelopeFixedSize = 1 + 8 + 8 + 8 + 4

// ErrRemote marks a failure reported by the replica server: the variant
// on the far side executed and failed (or panicked — the server contains
// panics with core.Guard). The original error chain does not survive the
// wire; only its message does.
var ErrRemote = errors.New("dist: remote variant failed")

// appendEnvelope appends e to dst. Callers that encode a value straight
// into the frame leave Payload nil and append the value afterwards.
func appendEnvelope(dst []byte, e *envelope) []byte {
	dst = append(dst, e.Kind)
	dst = binary.BigEndian.AppendUint64(dst, e.ID)
	dst = binary.BigEndian.AppendUint64(dst, e.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, e.SpanID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Err)))
	dst = append(dst, e.Err...)
	return append(dst, e.Payload...)
}

// decodeEnvelope parses a frame payload. A bad kind, a truncated field
// or an error length beyond the frame is a corrupt frame. The returned
// Payload aliases data, so it must be decoded before data is reused;
// Err is a copy.
func decodeEnvelope(data []byte) (envelope, error) {
	var e envelope
	if len(data) < envelopeFixedSize {
		return e, fmt.Errorf("%w: envelope of %d bytes, want at least %d", ErrBadFrame, len(data), envelopeFixedSize)
	}
	if data[0] < kindCall || data[0] > kindPong {
		return e, fmt.Errorf("%w: envelope kind %d", ErrBadFrame, data[0])
	}
	e.Kind = data[0]
	e.ID = binary.BigEndian.Uint64(data[1:9])
	e.TraceID = binary.BigEndian.Uint64(data[9:17])
	e.SpanID = binary.BigEndian.Uint64(data[17:25])
	n := binary.BigEndian.Uint32(data[25:29])
	rest := data[envelopeFixedSize:]
	if uint64(n) > uint64(len(rest)) {
		return e, fmt.Errorf("%w: envelope error of %d bytes, %d left", ErrBadFrame, n, len(rest))
	}
	e.Err = string(rest[:n])
	e.Payload = rest[n:]
	return e, nil
}
