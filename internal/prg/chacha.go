// Package prg provides a ChaCha20-based pseudorandom generator.
//
// The paper (§5.1) uses the ChaCha stream cipher as the verifier's
// pseudorandom generator: PCP queries are long vectors of field elements, and
// deriving them from a short seed both speeds up the verifier (the parameter
// c in Figure 3) and collapses network cost — V ships a seed instead of full
// query vectors ([53], Apdx A.3), so the prover regenerates
// computation-oblivious queries locally.
//
// This is a from-scratch implementation of the ChaCha20 core (D. J.
// Bernstein, "ChaCha, a variant of Salsa20") exposing an io.Reader. It is
// used as a PRG, not as an encryption primitive.
package prg

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
)

const (
	// KeySize is the ChaCha20 key size in bytes.
	KeySize = 32
	// NonceSize is the ChaCha20 nonce size in bytes (the original 64-bit
	// nonce variant, leaving a 64-bit block counter).
	NonceSize = 8
	blockSize = 64
	rounds    = 20
)

// ChaCha is a deterministic pseudorandom byte stream. It implements
// io.Reader and never returns an error. A ChaCha value is not safe for
// concurrent use; derive independent streams with Fork instead.
type ChaCha struct {
	state [16]uint32 // input block: constants, key, counter, nonce
	buf   [blockSize]byte
	used  int // bytes of buf already consumed
}

var sigma = [4]uint32{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574} // "expand 32-byte k"

// New returns a ChaCha20 stream for the given 32-byte key and 8-byte nonce.
func New(key [KeySize]byte, nonce [NonceSize]byte) *ChaCha {
	c := &ChaCha{used: blockSize}
	copy(c.state[:4], sigma[:])
	for i := 0; i < 8; i++ {
		c.state[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	c.state[12] = 0 // block counter low
	c.state[13] = 0 // block counter high
	c.state[14] = binary.LittleEndian.Uint32(nonce[0:])
	c.state[15] = binary.LittleEndian.Uint32(nonce[4:])
	return c
}

// NewFromSeed derives a stream from an arbitrary-length seed by hashing it
// into a key. The nonce distinguishes independent streams from one seed.
func NewFromSeed(seed []byte, nonce uint64) *ChaCha {
	var key [KeySize]byte
	sum := sha256.Sum256(seed)
	copy(key[:], sum[:])
	var n [NonceSize]byte
	binary.LittleEndian.PutUint64(n[:], nonce)
	return New(key, n)
}

// Fork returns an independent stream derived from this stream's key material
// and the given label; the receiver is not advanced.
func (c *ChaCha) Fork(label uint64) *ChaCha {
	var key [KeySize]byte
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint32(key[4*i:], c.state[4+i])
	}
	h := sha256.New()
	h.Write(key[:])
	var lb [8]byte
	binary.LittleEndian.PutUint64(lb[:], label)
	h.Write(lb[:])
	sum := h.Sum(nil)
	copy(key[:], sum)
	var n [NonceSize]byte
	binary.LittleEndian.PutUint64(n[:], label)
	return New(key, n)
}

func quarterRound(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d ^= a
	d = d<<16 | d>>16
	c += d
	b ^= c
	b = b<<12 | b>>20
	a += b
	d ^= a
	d = d<<8 | d>>24
	c += d
	b ^= c
	b = b<<7 | b>>25
	return a, b, c, d
}

// block writes the keystream block at the current counter into out and
// advances the counter. The rounds run on sixteen scalar locals, not on a
// copy of the state array, so the compiler can keep the working state in
// registers.
func (c *ChaCha) block(out *[blockSize]byte) {
	s := &c.state
	x0, x1, x2, x3 := s[0], s[1], s[2], s[3]
	x4, x5, x6, x7 := s[4], s[5], s[6], s[7]
	x8, x9, x10, x11 := s[8], s[9], s[10], s[11]
	x12, x13, x14, x15 := s[12], s[13], s[14], s[15]
	for i := 0; i < rounds; i += 2 {
		// column rounds
		x0, x4, x8, x12 = quarterRound(x0, x4, x8, x12)
		x1, x5, x9, x13 = quarterRound(x1, x5, x9, x13)
		x2, x6, x10, x14 = quarterRound(x2, x6, x10, x14)
		x3, x7, x11, x15 = quarterRound(x3, x7, x11, x15)
		// diagonal rounds
		x0, x5, x10, x15 = quarterRound(x0, x5, x10, x15)
		x1, x6, x11, x12 = quarterRound(x1, x6, x11, x12)
		x2, x7, x8, x13 = quarterRound(x2, x7, x8, x13)
		x3, x4, x9, x14 = quarterRound(x3, x4, x9, x14)
	}
	le := binary.LittleEndian
	le.PutUint32(out[0:], x0+s[0])
	le.PutUint32(out[4:], x1+s[1])
	le.PutUint32(out[8:], x2+s[2])
	le.PutUint32(out[12:], x3+s[3])
	le.PutUint32(out[16:], x4+s[4])
	le.PutUint32(out[20:], x5+s[5])
	le.PutUint32(out[24:], x6+s[6])
	le.PutUint32(out[28:], x7+s[7])
	le.PutUint32(out[32:], x8+s[8])
	le.PutUint32(out[36:], x9+s[9])
	le.PutUint32(out[40:], x10+s[10])
	le.PutUint32(out[44:], x11+s[11])
	le.PutUint32(out[48:], x12+s[12])
	le.PutUint32(out[52:], x13+s[13])
	le.PutUint32(out[56:], x14+s[14])
	le.PutUint32(out[60:], x15+s[15])
	// 64-bit block counter in words 12..13.
	s[12]++
	if s[12] == 0 {
		s[13]++
	}
}

// Read fills p with pseudorandom bytes. It never fails. Whole blocks are
// written straight into p; only a trailing partial block goes through the
// buffer, whose rest the next Read drains first.
func (c *ChaCha) Read(p []byte) (int, error) {
	n := copy(p, c.buf[c.used:])
	c.used += n
	p = p[n:]
	for len(p) >= blockSize {
		c.block((*[blockSize]byte)(p))
		p = p[blockSize:]
		n += blockSize
	}
	if len(p) > 0 {
		c.block(&c.buf)
		c.used = copy(p, c.buf[:])
		n += c.used
	}
	return n, nil
}

// Uint64 returns the next 8 bytes of the stream as a little-endian uint64.
func (c *ChaCha) Uint64() uint64 {
	var b [8]byte
	_, _ = c.Read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

var _ io.Reader = (*ChaCha)(nil)
