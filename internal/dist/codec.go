package dist

// The value codec turns one RPC input or output into envelope payload
// bytes. It is picked once, from the type parameter, when a Remote,
// Quorum or Server is built: the common scalar types and
// encoding.BinaryMarshaler implementations get an encoding/binary fast
// path that appends straight into the frame buffer, and every other
// type falls back to gob. A payload starts with a one-byte codec tag,
// so a peer whose type decodes with a different codec rejects the
// value instead of reinterpreting its bytes. Integer widths share a
// tag the way gob lets int talk to int64: every signed integer type
// decodes every signed integer payload that fits it, and likewise for
// unsigned integers and for floats.

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// Codec tags: the first byte of every value payload.
const (
	tagInt    = iota + 1 // every signed integer type: zigzag varint
	tagUint              // every unsigned integer type: varint
	tagFloat             // float32 (4 bytes) or float64 (8 bytes): IEEE bits, big-endian
	tagBool              // one byte, 0 or 1
	tagString            // the raw bytes
	tagBytes             // the raw bytes; empty decodes to nil, as under gob
	tagBinary            // encoding.BinaryMarshaler output
	tagGob               // one gob stream: every other type
)

// valueCodec encodes and decodes values of one type.
type valueCodec[T any] struct {
	tag byte
	enc func(dst []byte, v T) ([]byte, error)
	dec func(src []byte) (T, error)
}

// append appends v's payload — tag, then value bytes — to dst.
func (c valueCodec[T]) append(dst []byte, v T) ([]byte, error) {
	return c.enc(append(dst, c.tag), v)
}

// decode parses one payload. The result never aliases src, which may
// be a reused read buffer; any malformed payload, including one written
// by a different codec, is ErrBadFrame.
func (c valueCodec[T]) decode(src []byte) (v T, err error) {
	if len(src) == 0 {
		return v, badValue("empty payload")
	}
	if src[0] != c.tag {
		return v, badValue("codec tag %d, want %d", src[0], c.tag)
	}
	return c.dec(src[1:])
}

// rpcCodec is the pair of value codecs one typed client or server uses.
type rpcCodec[I, O any] struct {
	in  valueCodec[I]
	out valueCodec[O]
}

func newRPCCodec[I, O any]() *rpcCodec[I, O] {
	return &rpcCodec[I, O]{in: newValueCodec[I](), out: newValueCodec[O]()}
}

// newValueCodec picks T's codec. Only the exact predeclared types take
// the scalar fast paths; a named type over one of them goes through its
// BinaryMarshaler if *T has one, and through gob otherwise.
func newValueCodec[T any]() valueCodec[T] {
	var zero T
	switch any(&zero).(type) {
	case *int:
		return signedCodec[T, int]()
	case *int8:
		return signedCodec[T, int8]()
	case *int16:
		return signedCodec[T, int16]()
	case *int32:
		return signedCodec[T, int32]()
	case *int64:
		return signedCodec[T, int64]()
	case *uint:
		return unsignedCodec[T, uint]()
	case *uint8:
		return unsignedCodec[T, uint8]()
	case *uint16:
		return unsignedCodec[T, uint16]()
	case *uint32:
		return unsignedCodec[T, uint32]()
	case *uint64:
		return unsignedCodec[T, uint64]()
	case *uintptr:
		return unsignedCodec[T, uintptr]()
	case *float32:
		return float32Codec[T]()
	case *float64:
		return float64Codec[T]()
	case *bool:
		return boolCodec[T]()
	case *string:
		return stringCodec[T]()
	case *[]byte:
		return bytesCodec[T]()
	case encoding.BinaryMarshaler:
		if _, ok := any(&zero).(encoding.BinaryUnmarshaler); ok {
			return binaryCodec[T]()
		}
	}
	return gobCodec[T]()
}

// badValue reports a malformed value payload.
func badValue(format string, args ...any) error {
	return fmt.Errorf("%w: value: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

func signedCodec[T any, N int | int8 | int16 | int32 | int64]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagInt,
		enc: func(dst []byte, v T) ([]byte, error) {
			return binary.AppendVarint(dst, int64(any(v).(N))), nil
		},
		dec: func(src []byte) (out T, err error) {
			x, n := binary.Varint(src)
			if n <= 0 || n != len(src) {
				return out, badValue("malformed varint")
			}
			if int64(N(x)) != x {
				return out, badValue("%d out of range for %T", x, N(0))
			}
			*any(&out).(*N) = N(x)
			return out, nil
		},
	}
}

func unsignedCodec[T any, N uint | uint8 | uint16 | uint32 | uint64 | uintptr]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagUint,
		enc: func(dst []byte, v T) ([]byte, error) {
			return binary.AppendUvarint(dst, uint64(any(v).(N))), nil
		},
		dec: func(src []byte) (out T, err error) {
			x, n := binary.Uvarint(src)
			if n <= 0 || n != len(src) {
				return out, badValue("malformed uvarint")
			}
			if uint64(N(x)) != x {
				return out, badValue("%d out of range for %T", x, N(0))
			}
			*any(&out).(*N) = N(x)
			return out, nil
		},
	}
}

// float64Codec sends the 8 IEEE bits, so NaN payloads and -0 survive;
// a float32 peer's 4-byte payload widens exactly.
func float64Codec[T any]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagFloat,
		enc: func(dst []byte, v T) ([]byte, error) {
			return binary.BigEndian.AppendUint64(dst, math.Float64bits(any(v).(float64))), nil
		},
		dec: func(src []byte) (out T, err error) {
			var f float64
			switch len(src) {
			case 8:
				f = math.Float64frombits(binary.BigEndian.Uint64(src))
			case 4:
				f = float64(math.Float32frombits(binary.BigEndian.Uint32(src)))
			default:
				return out, badValue("float of %d bytes", len(src))
			}
			*any(&out).(*float64) = f
			return out, nil
		},
	}
}

// float32Codec sends the 4 IEEE bits. A float64 peer's value narrows
// when it is finite and in range, or infinite or NaN; a finite value
// beyond float32's range is an error, as under gob.
func float32Codec[T any]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagFloat,
		enc: func(dst []byte, v T) ([]byte, error) {
			return binary.BigEndian.AppendUint32(dst, math.Float32bits(any(v).(float32))), nil
		},
		dec: func(src []byte) (out T, err error) {
			var f float32
			switch len(src) {
			case 4:
				f = math.Float32frombits(binary.BigEndian.Uint32(src))
			case 8:
				w := math.Float64frombits(binary.BigEndian.Uint64(src))
				if math.Abs(w) > math.MaxFloat32 && !math.IsInf(w, 0) {
					return out, badValue("%g out of range for float32", w)
				}
				f = float32(w)
			default:
				return out, badValue("float of %d bytes", len(src))
			}
			*any(&out).(*float32) = f
			return out, nil
		},
	}
}

func boolCodec[T any]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagBool,
		enc: func(dst []byte, v T) ([]byte, error) {
			if any(v).(bool) {
				return append(dst, 1), nil
			}
			return append(dst, 0), nil
		},
		dec: func(src []byte) (out T, err error) {
			if len(src) != 1 || src[0] > 1 {
				return out, badValue("malformed bool")
			}
			*any(&out).(*bool) = src[0] == 1
			return out, nil
		},
	}
}

func stringCodec[T any]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagString,
		enc: func(dst []byte, v T) ([]byte, error) {
			return append(dst, any(v).(string)...), nil
		},
		dec: func(src []byte) (out T, err error) {
			*any(&out).(*string) = string(src)
			return out, nil
		},
	}
}

func bytesCodec[T any]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagBytes,
		enc: func(dst []byte, v T) ([]byte, error) {
			return append(dst, any(v).([]byte)...), nil
		},
		dec: func(src []byte) (out T, err error) {
			if len(src) > 0 {
				*any(&out).(*[]byte) = append([]byte(nil), src...)
			}
			return out, nil
		},
	}
}

// binaryCodec carries MarshalBinary's output. UnmarshalBinary receives
// a slice of the read buffer and, per its contract, copies what it keeps.
func binaryCodec[T any]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagBinary,
		enc: func(dst []byte, v T) ([]byte, error) {
			b, err := any(&v).(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				return dst, fmt.Errorf("dist: encode value: %w", err)
			}
			return append(dst, b...), nil
		},
		dec: func(src []byte) (out T, err error) {
			if err := any(&out).(encoding.BinaryUnmarshaler).UnmarshalBinary(src); err != nil {
				return out, badValue("%v", err)
			}
			return out, nil
		},
	}
}

// gobCodec is the fallback: one self-describing gob stream per value.
func gobCodec[T any]() valueCodec[T] {
	return valueCodec[T]{
		tag: tagGob,
		enc: func(dst []byte, v T) ([]byte, error) {
			buf := bytes.NewBuffer(dst)
			if err := gob.NewEncoder(buf).Encode(v); err != nil {
				return dst, fmt.Errorf("dist: encode value: %w", err)
			}
			return buf.Bytes(), nil
		},
		dec: func(src []byte) (out T, err error) {
			if err := gob.NewDecoder(bytes.NewReader(src)).Decode(&out); err != nil {
				return out, badValue("%v", err)
			}
			return out, nil
		},
	}
}
