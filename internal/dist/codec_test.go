package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/softwarefaults/redundancy/internal/core"
)

// point takes the BinaryMarshaler fast path.
type point struct{ X, Y int32 }

func (p *point) MarshalBinary() ([]byte, error) {
	b := binary.BigEndian.AppendUint32(nil, uint32(p.X))
	return binary.BigEndian.AppendUint32(b, uint32(p.Y)), nil
}

func (p *point) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("point: %d bytes, want 8", len(b))
	}
	p.X, p.Y = int32(binary.BigEndian.Uint32(b)), int32(binary.BigEndian.Uint32(b[4:]))
	return nil
}

// gobRecord has no fast path and falls back to gob.
type gobRecord struct {
	Name   string
	Values []int
	Scores map[string]float64
}

// codecSeeds returns one valid payload per codec, for the fuzzer.
func codecSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	add := func(b []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	ic, uc, fc, f32c := newValueCodec[int64](), newValueCodec[uint64](), newValueCodec[float64](), newValueCodec[float32]()
	bc, sc, bsc := newValueCodec[bool](), newValueCodec[string](), newValueCodec[[]byte]()
	pc, gc := newValueCodec[point](), newValueCodec[gobRecord]()
	add(ic.append(nil, math.MinInt64))
	add(uc.append(nil, 300))
	add(fc.append(nil, math.Copysign(0, -1)))
	add(f32c.append(nil, 1.5))
	add(bc.append(nil, true))
	add(sc.append(nil, "héllo"))
	add(bsc.append(nil, []byte{0, 1, 2}))
	add(pc.append(nil, point{X: -1, Y: 2}))
	add(gc.append(nil, gobRecord{Name: "r", Values: []int{1, 2}, Scores: map[string]float64{"a": 0.5}}))
	return out
}

// codecRoundTrip encodes v with T's codec and decodes it back.
func codecRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	c := newValueCodec[T]()
	payload, err := c.append(nil, v)
	if err != nil {
		t.Fatalf("%T: encode %v: %v", v, v, err)
	}
	got, err := c.decode(payload)
	if err != nil {
		t.Fatalf("%T: decode %v: %v", v, v, err)
	}
	return got
}

// gobRoundTrip is what the wire did before the value codecs: a gob
// stream of A decoded into a B.
func gobRoundTrip[A, B any](v A) (B, error) {
	var buf bytes.Buffer
	var out B
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return out, err
	}
	err := gob.NewDecoder(&buf).Decode(&out)
	return out, err
}

func checkRoundTrip[T comparable](t *testing.T, vs ...T) {
	t.Helper()
	for _, v := range vs {
		if got := codecRoundTrip(t, v); got != v {
			t.Errorf("%T: %v came back as %v", v, v, got)
		}
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	checkRoundTrip(t, 0, 1, -1, math.MinInt, math.MaxInt)
	checkRoundTrip[int8](t, math.MinInt8, math.MaxInt8)
	checkRoundTrip[int16](t, math.MinInt16, math.MaxInt16)
	checkRoundTrip[int32](t, math.MinInt32, math.MaxInt32)
	checkRoundTrip[int64](t, math.MinInt64, math.MaxInt64)
	checkRoundTrip[uint](t, 0, math.MaxUint)
	checkRoundTrip[uint8](t, 0, math.MaxUint8)
	checkRoundTrip[uint16](t, 0, math.MaxUint16)
	checkRoundTrip[uint32](t, 0, math.MaxUint32)
	checkRoundTrip[uint64](t, 0, math.MaxUint64)
	checkRoundTrip[uintptr](t, 0, ^uintptr(0))
	checkRoundTrip(t, true, false)
	checkRoundTrip(t, "", "ascii", "héllo, 世界 🌍")
	checkRoundTrip(t, point{}, point{X: math.MinInt32, Y: math.MaxInt32})

	// Floats travel bit-exactly: NaN payloads and the sign of zero.
	for _, bits := range []uint64{
		0, math.Float64bits(math.Copysign(0, -1)), 0x7ff8000000000001, 0xfff0000000000000,
		math.Float64bits(math.MaxFloat64), math.Float64bits(math.SmallestNonzeroFloat64),
	} {
		if got := math.Float64bits(codecRoundTrip(t, math.Float64frombits(bits))); got != bits {
			t.Errorf("float64 %#x came back as %#x", bits, got)
		}
	}
	for _, bits := range []uint32{0, math.Float32bits(float32(math.Copysign(0, -1))), 0x7fc00001, 0xff800000} {
		if got := math.Float32bits(codecRoundTrip(t, math.Float32frombits(bits))); got != bits {
			t.Errorf("float32 %#x came back as %#x", bits, got)
		}
	}

	// []byte: content survives, and nil-versus-empty matches gob, which
	// delivers both as nil.
	for _, in := range [][]byte{nil, {}, {0}, bytes.Repeat([]byte{0xa5}, 4096)} {
		got := codecRoundTrip(t, in)
		want, err := gobRoundTrip[[]byte, []byte](in)
		if err != nil {
			t.Fatalf("gob []byte: %v", err)
		}
		if !bytes.Equal(got, in) || (got == nil) != (want == nil) {
			t.Errorf("[]byte %v came back as %#v, gob gives %#v", in, got, want)
		}
	}

	// The gob fallback keeps carrying every other type.
	rec := gobRecord{Name: "r1", Values: []int{3, -4}, Scores: map[string]float64{"p": 0.25}}
	if got := codecRoundTrip(t, rec); !reflect.DeepEqual(got, rec) {
		t.Errorf("gob record %+v came back as %+v", rec, got)
	}
}

// TestValueCodecPicksFastPaths pins which codec each type takes: a
// type that silently fell back to gob would still round-trip, and only
// the benchmarks would notice.
func TestValueCodecPicksFastPaths(t *testing.T) {
	type celsius float64
	for _, c := range []struct {
		name      string
		got, want byte
	}{
		{"int", newValueCodec[int]().tag, tagInt},
		{"int32", newValueCodec[int32]().tag, tagInt},
		{"uint8", newValueCodec[uint8]().tag, tagUint},
		{"float32", newValueCodec[float32]().tag, tagFloat},
		{"bool", newValueCodec[bool]().tag, tagBool},
		{"string", newValueCodec[string]().tag, tagString},
		{"[]byte", newValueCodec[[]byte]().tag, tagBytes},
		{"point", newValueCodec[point]().tag, tagBinary},
		{"gobRecord", newValueCodec[gobRecord]().tag, tagGob},
		{"celsius", newValueCodec[celsius]().tag, tagGob},
		{"*point", newValueCodec[*point]().tag, tagGob},
		{"any", newValueCodec[any]().tag, tagGob},
	} {
		if c.got != c.want {
			t.Errorf("%s: codec tag %d, want %d", c.name, c.got, c.want)
		}
	}
}

// crossCheck sends an A to a peer that decodes a B and compares the
// outcome with what gob did for the same pair: both accept (with equal
// values) or both refuse.
func crossCheck[A, B any](t *testing.T, v A) {
	t.Helper()
	payload, err := newValueCodec[A]().append(nil, v)
	if err != nil {
		t.Fatalf("%T: encode: %v", v, err)
	}
	got, err := newValueCodec[B]().decode(payload)
	want, gobErr := gobRoundTrip[A, B](v)
	switch {
	case (err == nil) != (gobErr == nil):
		t.Errorf("%T %v -> %T: codec err %v, gob err %v", v, v, got, err, gobErr)
	case err != nil && !errors.Is(err, ErrBadFrame):
		t.Errorf("%T -> %T: untyped error %v", v, got, err)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Errorf("%T %v -> %T: got %v, gob gives %v", v, v, got, got, want)
	}
}

func TestValueCodecPeerCompatibilityMatchesGob(t *testing.T) {
	crossCheck[int, int64](t, -5)
	crossCheck[int64, int](t, math.MinInt64)
	crossCheck[int64, int8](t, 127)
	crossCheck[int64, int8](t, 300)
	crossCheck[uint, uint64](t, 7)
	crossCheck[uint64, uint8](t, 256)
	crossCheck[float32, float64](t, 1.5)
	crossCheck[float64, float32](t, 0.25)
	crossCheck[float64, float32](t, 1e300)
	crossCheck[float64, float32](t, math.Inf(-1))
	crossCheck[int, uint](t, 3)
	crossCheck[uint, int](t, 3)
	crossCheck[int, bool](t, 1)
	crossCheck[bool, int](t, true)
	crossCheck[float64, int](t, 3)
	crossCheck[string, []byte](t, "hi")
	crossCheck[[]byte, string](t, []byte("hi"))
	crossCheck[string, int](t, "x")
	crossCheck[int, string](t, 7)
	crossCheck[gobRecord, int](t, gobRecord{Name: "r"})
	crossCheck[int, gobRecord](t, 4)
}

// TestPeerTypeMismatchFailsRemotely serves a string replica to an int
// client: the server cannot decode the call, so the caller gets the
// in-band ErrRemote — never a value reinterpreted from the wrong bytes.
func TestPeerTypeMismatchFailsRemotely(t *testing.T) {
	network := NewPipeNetwork()
	ln, err := network.Listen("s1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := NewServer(core.NewVariant("echo", func(_ context.Context, s string) (string, error) {
		return s, nil
	}), ln, ServerConfig{})
	go srv.Serve(context.Background())
	t.Cleanup(func() { srv.Close() })
	remote, err := NewRemote[int, int]("mismatch", RemoteConfig{},
		Endpoint{Name: "s1", Dial: network.Dial("s1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	got, err := remote.Execute(context.Background(), 42)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("mismatched peer: got %v, want ErrRemote", err)
	}
	if got != 0 {
		t.Fatalf("mismatched peer returned a value: %d", got)
	}
}

// TestRemoteRoundTripAllocCeiling bounds the allocations of one Remote
// round trip over PipeNetwork, client and server together. The ceiling
// is the measured figure plus about 10%: a change that brings gob (or
// any per-call encoder) back onto the request path fails here.
func TestRemoteRoundTripAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	const ceiling = 30
	network := NewPipeNetwork()
	startReplica(t, network, "r1", double())
	remote, err := NewRemote[int, int]("allocs", RemoteConfig{},
		Endpoint{Name: "r1", Dial: network.Dial("r1")})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer remote.Close()
	ctx := context.Background()
	x := 1 << 40 // a multi-byte varint
	allocs := testing.AllocsPerRun(500, func() {
		x++
		if got, err := remote.Execute(ctx, x); err != nil || got != 2*x {
			t.Fatalf("Execute(%d) = %d, %v", x, got, err)
		}
	})
	t.Logf("%.1f allocs per round trip (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("%.1f allocs per round trip, ceiling %d", allocs, ceiling)
	}
}
