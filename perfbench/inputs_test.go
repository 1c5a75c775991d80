package main

import (
	"bytes"
	"testing"
)

// stream is everything the benchmark generates from one seed: the
// first requests of every input kind and the seeds it hands the fleet.
type stream struct {
	ints    []int64
	records []Record
	seeds   []uint64
}

func streamOf(seed uint64) stream {
	s := stream{seeds: []uint64{derive(seed, saltFailSlow), derive(seed, saltEjector)}}
	recs := newRecords(seed)
	for seq := uint64(1); seq <= 500; seq++ {
		s.ints = append(s.ints, intInput(seed, seq))
		s.records = append(s.records, recs.input(seq))
	}
	return s
}

// diff counts the positions where two streams differ.
func diff(a, b stream) (ints, records, seeds int) {
	for i := range a.ints {
		if a.ints[i] != b.ints[i] {
			ints++
		}
		if a.records[i].ID != b.records[i].ID || !bytes.Equal(a.records[i].Body, b.records[i].Body) {
			records++
		}
	}
	for i := range a.seeds {
		if a.seeds[i] != b.seeds[i] {
			seeds++
		}
	}
	return ints, records, seeds
}

func TestSameSeedSameInputs(t *testing.T) {
	if ints, records, seeds := diff(streamOf(42), streamOf(42)); ints+records+seeds != 0 {
		t.Fatalf("seed 42 twice: %d ints, %d records, %d seeds differ", ints, records, seeds)
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	ints, records, seeds := diff(streamOf(42), streamOf(43))
	// Keys are 24 bits and bodies come from a 64-entry pool, so a few
	// positions may agree by chance; nearly all must differ.
	if ints < 490 || records < 400 || seeds != 2 {
		t.Fatalf("seeds 42 and 43: only %d ints, %d records, %d seeds differ", ints, records, seeds)
	}
}

func TestRequestIDsRoundTrip(t *testing.T) {
	recs := newRecords(7)
	for seq := uint64(1); seq < 1<<20; seq = seq*3 + 1 {
		x := intInput(7, seq)
		if intSeq(x) != seq {
			t.Fatalf("intSeq(intInput(%d)) = %d", seq, intSeq(x))
		}
		if id, _ := intReplyID(twoXPlusOne(x)); id != seq {
			t.Fatalf("intReplyID(2x+1) for seq %d = %d", seq, id)
		}
		if r := recs.input(seq); r.ID != seq || len(r.Body) != bodyBytes {
			t.Fatalf("record %d: ID %d, %d bytes", seq, r.ID, len(r.Body))
		}
	}
}
