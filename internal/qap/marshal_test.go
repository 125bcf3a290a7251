package qap

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"zaatar/internal/field"
)

func TestQAPMarshalRoundTrip(t *testing.T) {
	f := field.FTest()
	qs, witness := buildSquareChain(t, f, 6)
	orig, err := New(f, qs)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalQAP(f, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.NC != orig.NC || got.N != orig.N || got.NZ != orig.NZ || got.NNZ() != orig.NNZ() {
		t.Fatalf("dimensions changed: got (%d,%d,%d,%d) want (%d,%d,%d,%d)",
			got.NC, got.N, got.NZ, got.NNZ(), orig.NC, orig.N, orig.NZ, orig.NNZ())
	}

	// The decoded QAP must be behaviorally identical: bit-identical h for a
	// satisfying witness and bit-identical queries at the same τ.
	w := witness(3)
	h0, err := orig.BuildH(w)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := got.BuildH(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h0, h1) {
		t.Fatal("h differs after round trip")
	}
	tau := f.FromUint64(987654)
	q0, err := orig.BuildQueries(tau)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := got.BuildQueries(tau)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q0, q1) {
		t.Fatal("queries differ after round trip")
	}

	// A non-witness must still be rejected.
	bad := append([]field.Element(nil), w...)
	bad[len(bad)-1] = f.Add(bad[len(bad)-1], f.One())
	if _, err := got.BuildH(bad); err == nil {
		t.Fatal("decoded QAP accepted a non-satisfying assignment")
	}
}

func TestUnmarshalQAPRejectsCorruption(t *testing.T) {
	f := field.FTest()
	qs, _ := buildSquareChain(t, f, 4)
	orig, err := New(f, qs)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalQAP(f, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob decoded without error")
	}
	if _, err := UnmarshalQAP(f, append(bytes.Clone(blob), 0x01)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	if _, err := UnmarshalQAP(f, nil); err == nil {
		t.Fatal("empty blob decoded without error")
	}
	// Every prefix fails cleanly, and so does a header whose |C| or row
	// counts promise more than the payload holds.
	for n := range blob {
		if _, err := UnmarshalQAP(f, blob[:n]); err == nil {
			t.Fatalf("%d-byte prefix decoded without error", n)
		}
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	if _, err := UnmarshalQAP(f, append(huge, blob[1:]...)); err == nil {
		t.Fatal("|C| = 2^40 decoded without error")
	}
	hdr := binary.AppendUvarint(nil, uint64(orig.NC))
	hdr = binary.AppendUvarint(hdr, uint64(orig.N))
	hdr = binary.AppendUvarint(hdr, uint64(orig.NZ))
	hdr = binary.AppendUvarint(hdr, uint64(orig.NNZ()))
	if _, err := UnmarshalQAP(f, append(binary.AppendUvarint(hdr, 1<<40), blob[len(hdr)+1:]...)); err == nil {
		t.Fatal("2^40 rows decoded without error")
	}
}
