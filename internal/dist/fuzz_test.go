package dist

// FuzzDecodeFrame hammers the v3 wire path's decode side: readFrame
// (version byte, length prefix, CRC) and decodeEnvelope (the fixed
// binary envelope carrying the trace words and the error string), and
// FuzzDecodeValue hammers the value codecs under it. The workload and
// checkpoint layers have had fuzz targets since their PRs; the frame
// codec is the third parser of untrusted bytes in the repo — every
// replica server reads frames straight off a network a fault injector
// deliberately corrupts — and the contract under corruption is: a typed
// error (ErrBadFrame, ErrFrameTooLarge, ErrVersionMismatch) or an io
// error, never a panic, never an allocation or read beyond the declared
// bounds.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func FuzzDecodeFrame(f *testing.F) {
	// Seed with valid frames so mutations explore the near-valid space
	// where parser bugs live: a ping envelope, a trace-carrying call
	// envelope, a failed reply, a raw payload, and the empty frame.
	seed := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, append(newFrame(nil), payload...)); err != nil {
			f.Fatalf("seed writeFrame: %v", err)
		}
		return buf.Bytes()
	}
	ic := newValueCodec[int]()
	input, err := ic.append(nil, 21)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed(appendEnvelope(nil, &envelope{ID: 1, Kind: kindPing})))
	f.Add(seed(appendEnvelope(nil, &envelope{
		ID: 7, Kind: kindCall, Payload: input,
		TraceID: 0xdeadbeefcafe, SpanID: 0x1234,
	})))
	f.Add(seed(appendEnvelope(nil, &envelope{ID: 7, Kind: kindReply, Err: "variant failed"})))
	f.Add(seed([]byte("hello")))
	f.Add(seed(nil))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})             // old wire version 1
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})             // old wire version 2
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // hostile length

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			// Corruption must classify as a typed frame error or an io
			// error (truncated stream) — anything else is an escape.
			switch {
			case errors.Is(err, ErrBadFrame),
				errors.Is(err, ErrFrameTooLarge),
				errors.Is(err, ErrVersionMismatch),
				errors.Is(err, io.EOF),
				errors.Is(err, io.ErrUnexpectedEOF):
			default:
				t.Fatalf("readFrame(%d bytes): untyped error %v", len(data), err)
			}
			return
		}
		// No over-read: the payload cannot exceed what the stream held
		// past the header, nor the declared size cap.
		if len(payload) > len(data)-frameHeaderSize {
			t.Fatalf("readFrame returned %d payload bytes from a %d-byte stream", len(payload), len(data))
		}
		if len(payload) > MaxFrameSize {
			t.Fatalf("readFrame returned %d bytes, above MaxFrameSize", len(payload))
		}
		// A frame that round-trips must re-encode byte-identically —
		// the replay property campaigns rely on.
		var buf bytes.Buffer
		if err := writeFrame(&buf, append(newFrame(nil), payload...)); err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:frameHeaderSize+len(payload)]) {
			t.Fatal("accepted frame re-encoded to different bytes")
		}
		// The envelope layer under the frame: a malformed envelope
		// (including mutated trace words and error lengths) must yield
		// ErrBadFrame, never panic, and one that decodes must re-encode
		// to the same bytes.
		env, err := decodeEnvelope(payload)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decodeEnvelope: untyped error %v", err)
			}
			return
		}
		if back := appendEnvelope(nil, &env); !bytes.Equal(back, payload) {
			t.Fatalf("envelope re-encoded to different bytes:\n got %x\nwant %x", back, payload)
		}
	})
}

// fuzzCodec decodes data with T's codec: the result is a value or
// ErrBadFrame, and a value re-encodes to a payload that decodes to the
// same value (under same; nil skips that check).
func fuzzCodec[T any](t *testing.T, data []byte, same func(a, b T) bool) {
	t.Helper()
	c := newValueCodec[T]()
	v, err := c.decode(data)
	if err != nil {
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%T: untyped error %v", v, err)
		}
		return
	}
	if same == nil {
		return
	}
	enc, err := c.append(nil, v)
	if err != nil {
		t.Fatalf("%T: re-encode of %v failed: %v", v, v, err)
	}
	back, err := c.decode(enc)
	if err != nil || !same(v, back) {
		t.Fatalf("%T: %v re-decoded as %v (%v)", v, v, back, err)
	}
}

func eq[T comparable](a, b T) bool { return a == b }

func FuzzDecodeValue(f *testing.F) {
	for _, seed := range codecSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{tagInt, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // varint overflow
	f.Add([]byte{tagGob, 0xff, 0xff, 0xff, 0x7f})                                           // hostile gob length

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCodec(t, data, eq[int])
		fuzzCodec(t, data, eq[int8])
		fuzzCodec(t, data, eq[int64])
		fuzzCodec(t, data, eq[uint])
		fuzzCodec(t, data, eq[uint16])
		fuzzCodec(t, data, eq[uint64])
		fuzzCodec(t, data, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
		fuzzCodec(t, data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
		fuzzCodec(t, data, eq[bool])
		fuzzCodec(t, data, eq[string])
		fuzzCodec(t, data, bytes.Equal)
		fuzzCodec(t, data, eq[point])
		fuzzCodec[gobRecord](t, data, nil)
	})
}
