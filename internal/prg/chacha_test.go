package prg

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestRFCVector checks the ChaCha20 block function against the keystream in
// the original ChaCha/djb test vectors (all-zero key and nonce, 20 rounds),
// as also reproduced in RFC 7539 appendix material for the djb variant.
func TestRFCVector(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	c := New(key, nonce)
	got := make([]byte, 64)
	_, _ = c.Read(got)
	want, _ := hex.DecodeString(
		"76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7" +
			"da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586")
	if !bytes.Equal(got, want) {
		t.Fatalf("keystream block 0 mismatch:\n got %x\nwant %x", got, want)
	}
}

// TestSecondBlockVector pins the second keystream block (counter = 1).
func TestSecondBlockVector(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	c := New(key, nonce)
	buf := make([]byte, 128)
	_, _ = c.Read(buf)
	want, _ := hex.DecodeString(
		"9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed" +
			"29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f")
	if !bytes.Equal(buf[64:], want) {
		t.Fatalf("keystream block 1 mismatch:\n got %x\nwant %x", buf[64:], want)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewFromSeed([]byte("seed"), 7)
	b := NewFromSeed([]byte("seed"), 7)
	ba := make([]byte, 1000)
	bb := make([]byte, 1000)
	_, _ = a.Read(ba)
	_, _ = b.Read(bb)
	if !bytes.Equal(ba, bb) {
		t.Fatal("same seed+nonce produced different streams")
	}
}

func TestSeedSeparation(t *testing.T) {
	a := NewFromSeed([]byte("seed"), 0)
	b := NewFromSeed([]byte("seed"), 1)
	c := NewFromSeed([]byte("other"), 0)
	ba := make([]byte, 64)
	bb := make([]byte, 64)
	bc := make([]byte, 64)
	_, _ = a.Read(ba)
	_, _ = b.Read(bb)
	_, _ = c.Read(bc)
	if bytes.Equal(ba, bb) || bytes.Equal(ba, bc) || bytes.Equal(bb, bc) {
		t.Fatal("distinct seeds/nonces produced equal streams")
	}
}

func TestUnevenReads(t *testing.T) {
	a := NewFromSeed([]byte("x"), 0)
	b := NewFromSeed([]byte("x"), 0)
	whole := make([]byte, 300)
	_, _ = a.Read(whole)
	var parts []byte
	for _, n := range []int{1, 2, 61, 64, 65, 107} {
		chunk := make([]byte, n)
		_, _ = b.Read(chunk)
		parts = append(parts, chunk...)
	}
	if !bytes.Equal(whole, parts) {
		t.Fatal("chunked reads diverge from a single read")
	}
}

// TestMixedChunkReads reads one stream in chunks that land inside a block,
// on a block edge, across one, and many blocks at once, and checks the bytes
// against a single large read: Read's direct whole-block path and its
// buffered tail must stitch into the same keystream.
func TestMixedChunkReads(t *testing.T) {
	fixed := []int{1, 7, 63, 64, 65, 4096, 1, 64, 0, 130}
	rng := rand.New(rand.NewSource(24))
	mixed := make([]int, 200)
	for i := range mixed {
		mixed[i] = rng.Intn(300)
	}
	for name, sizes := range map[string][]int{"fixed": fixed, "seeded": mixed} {
		total := 0
		for _, n := range sizes {
			total += n
		}
		whole := make([]byte, total)
		_, _ = NewFromSeed([]byte("chunks"), 3).Read(whole)
		c := NewFromSeed([]byte("chunks"), 3)
		var parts []byte
		for _, n := range sizes {
			chunk := make([]byte, n)
			if got, _ := c.Read(chunk); got != n {
				t.Fatalf("%s: Read(%d) returned %d", name, n, got)
			}
			parts = append(parts, chunk...)
		}
		if !bytes.Equal(whole, parts) {
			t.Fatalf("%s: chunked reads diverge from a single read", name)
		}
	}
}

func TestFork(t *testing.T) {
	base := NewFromSeed([]byte("base"), 0)
	f1 := base.Fork(1)
	f2 := base.Fork(2)
	f1b := base.Fork(1) // forking again with the same label reproduces
	b1 := make([]byte, 64)
	b2 := make([]byte, 64)
	b1b := make([]byte, 64)
	_, _ = f1.Read(b1)
	_, _ = f2.Read(b2)
	_, _ = f1b.Read(b1b)
	if bytes.Equal(b1, b2) {
		t.Fatal("forks with different labels are equal")
	}
	if !bytes.Equal(b1, b1b) {
		t.Fatal("fork with the same label is not reproducible")
	}
}

func TestUint64(t *testing.T) {
	a := NewFromSeed([]byte("u"), 0)
	b := NewFromSeed([]byte("u"), 0)
	var raw [8]byte
	_, _ = b.Read(raw[:])
	want := uint64(raw[0]) | uint64(raw[1])<<8 | uint64(raw[2])<<16 | uint64(raw[3])<<24 |
		uint64(raw[4])<<32 | uint64(raw[5])<<40 | uint64(raw[6])<<48 | uint64(raw[7])<<56
	if got := a.Uint64(); got != want {
		t.Fatalf("Uint64 = %x, want %x", got, want)
	}
}

func BenchmarkStream(b *testing.B) {
	c := NewFromSeed([]byte("bench"), 0)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		_, _ = c.Read(buf)
	}
}
