package main

import (
	"crypto/sha256"
	"encoding/binary"
)

// Every input the benchmark sends, and every seed it hands the program,
// is a pure function of the -seed argument and the request's sequence
// number, so one seed replays the same request stream however the
// clients interleave.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Salts separating the seeds derived from one benchmark seed.
const (
	saltKeys     = 0x6b657973
	saltBodies   = 0x626f6479
	saltFailSlow = 0x736c6f77
	saltEjector  = 0x656a6563
)

// derive returns the sub-seed for one purpose.
func derive(seed, salt uint64) uint64 { return mix(seed ^ mix(salt)) }

// keyBits is how many low bits of an integer input hold the seeded key;
// the bits above carry the request's sequence number, so every request
// is distinct and its ID can be read back from the input or the reply.
const keyBits = 24

// intInput is the integer request for sequence number seq.
func intInput(seed, seq uint64) int64 {
	key := mix(derive(seed, saltKeys)^seq) & (1<<keyBits - 1)
	return int64(seq<<keyBits | key)
}

// intSeq recovers the sequence number from an integer input.
func intSeq(x int64) uint64 { return uint64(x) >> keyBits }

// twoXPlusOne is the integer service every integer replica computes.
func twoXPlusOne(x int64) int64 { return 2*x + 1 }

// Record is the byte-heavy request: a ~4 KB body under a sequence ID.
type Record struct {
	ID   uint64
	Body []byte
}

// Digest is a record's reply: the SHA-256 of its ID and body.
type Digest [sha256.Size]byte

// digest is the record service every record replica computes.
func digest(r Record) Digest {
	h := sha256.New()
	var id [8]byte
	binary.BigEndian.PutUint64(id[:], r.ID)
	h.Write(id[:])
	h.Write(r.Body)
	var d Digest
	h.Sum(d[:0])
	return d
}

// Record bodies are drawn from a seeded pool, so that generating a
// request copies no bytes.
const (
	bodyBytes = 4096
	poolSize  = 64
)

// records generates the record stream of one seed.
type records struct {
	seed   uint64
	bodies [poolSize][]byte
}

func newRecords(seed uint64) *records {
	r := &records{seed: seed}
	s := derive(seed, saltBodies)
	for i := range r.bodies {
		b := make([]byte, bodyBytes)
		for j := 0; j < bodyBytes; j += 8 {
			s = mix(s)
			binary.LittleEndian.PutUint64(b[j:], s)
		}
		r.bodies[i] = b
	}
	return r
}

// input is the record request for sequence number seq.
func (r *records) input(seq uint64) Record {
	return Record{ID: seq, Body: r.bodies[mix(derive(r.seed, saltKeys)^seq)%poolSize]}
}
