// Package elgamal implements additively homomorphic (exponent) ElGamal
// encryption over a Schnorr group: a prime-order-q subgroup of Z_P* where q
// is exactly the PCP field modulus.
//
// This is the encryption used by the linear commitment protocol (Figure 2;
// §2.2 "Linear commitment"): the verifier encrypts a secret vector r, the
// prover homomorphically evaluates its linear proof function π on the
// ciphertexts, and the verifier decrypts g^{π(r)} — it never needs π(r)
// itself, only its fingerprint in the exponent, so no discrete log is taken.
// Choosing the subgroup order equal to the field modulus makes exponent
// arithmetic coincide with field arithmetic (the Pepper construction [52]).
//
// Each party has one path through the package. The verifier encrypts with
// its secret key from the generator's fixed-base table (table.go): Encrypt
// and EncryptVector live on SecretKey. The prover evaluates Enc(π(r))
// through Prepare and InnerProductPrepared (signed.go), the one entry into
// the multi-exponentiation kernels (multiexp.go).
//
// The paper uses ElGamal with 1024-bit keys (§5.1); the production groups
// here are 1024-bit primes P = k·q + 1 for each field, generated offline and
// verified by the package tests.
package elgamal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"zaatar/internal/field"
	"zaatar/internal/obs"
	"zaatar/internal/par"
)

// Group describes a prime-order subgroup of Z_P*.
//
// A Group also owns lazily-built kernel state (a Montgomery context for P
// and the generator's fixed-base table; see multiexp.go and table.go). The
// state is unexported, so gob-transported Groups (transport.Hello carries
// one inside the commit request's public key) arrive empty and rebuild it
// on first use. Groups must not be copied by value once in use.
type Group struct {
	P *big.Int // group prime modulus
	G *big.Int // generator of the order-q subgroup
	Q *big.Int // subgroup order = PCP field modulus

	konce   sync.Once
	kernels *kernels
}

// Validate sanity-checks a Group that arrived from an untrusted peer (gob
// decodes only the exported P, G, Q). It rejects shapes that would corrupt
// or crash the Montgomery kernels: nil or non-positive parameters, an even
// modulus, or a subgroup order not strictly inside (1, P). It does not
// verify primality or subgroup membership — the commitment protocol's
// soundness never depends on the prover checking those, only the kernels'
// preconditions do.
func (g *Group) Validate() error {
	if g == nil || g.P == nil || g.G == nil || g.Q == nil {
		return errors.New("elgamal: group with nil parameters")
	}
	if g.P.Sign() <= 0 || g.P.Bit(0) == 0 {
		return errors.New("elgamal: group modulus must be odd and positive")
	}
	two := big.NewInt(2)
	if g.Q.Cmp(two) < 0 || g.Q.Cmp(g.P) >= 0 {
		return errors.New("elgamal: subgroup order out of range")
	}
	if g.G.Cmp(two) < 0 || g.G.Cmp(g.P) >= 0 {
		return errors.New("elgamal: generator out of range")
	}
	return nil
}

// CheckCiphertexts verifies that every component of cts is a canonical
// nonzero residue mod P — the kernels' precondition: a component ≡ 0 mod P
// has no inverse for the signed-digit windows (Prepare would panic in the
// batch inversion), and an out-of-range value overflows the fixed-width limb
// encoding. Honest Encrypt output always passes; servers call this on
// wire-supplied vectors before Prepare, and the verifier on each received
// commitment before decrypting it, so a malicious ciphertext surfaces as a
// protocol error or a rejection instead of a panic.
func (g *Group) CheckCiphertexts(cts []Ciphertext) error {
	for i := range cts {
		for _, c := range [...]*big.Int{cts[i].A, cts[i].B} {
			if c == nil || c.Sign() <= 0 || c.Cmp(g.P) >= 0 {
				return fmt.Errorf("elgamal: ciphertext %d component is not a canonical nonzero residue mod P", i)
			}
		}
	}
	return nil
}

// PublicKey is an ElGamal public key h = g^x. It is what the prover
// receives; only the SecretKey encrypts.
type PublicKey struct {
	Group *Group
	H     *big.Int
}

// SecretKey holds the decryption exponent.
type SecretKey struct {
	PublicKey
	X *big.Int
}

// Ciphertext is an exponent-ElGamal ciphertext (A, B) = (g^k, h^k·g^m),
// encrypting the field element m in the exponent.
type Ciphertext struct {
	A, B *big.Int
}

// GenerateKey produces a key pair for the group using randomness from rnd.
func (g *Group) GenerateKey(rnd io.Reader) (*SecretKey, error) {
	x, err := randExponent(g.Q, rnd)
	if err != nil {
		return nil, err
	}
	h := new(big.Int).Exp(g.G, x, g.P)
	return &SecretKey{PublicKey: PublicKey{Group: g, H: h}, X: x}, nil
}

// randExponent returns a uniform value in [1, q).
func randExponent(q *big.Int, rnd io.Reader) (*big.Int, error) {
	nbytes := (q.BitLen() + 7) / 8
	buf := make([]byte, nbytes)
	shift := uint(nbytes*8 - q.BitLen())
	for {
		if _, err := io.ReadFull(rnd, buf); err != nil {
			return nil, err
		}
		v := new(big.Int).SetBytes(buf)
		v.Rsh(v, shift)
		if v.Sign() > 0 && v.Cmp(q) < 0 {
			return v, nil
		}
	}
}

// Encrypt encrypts the field element m (in the exponent): it is
// EncryptVector of one element.
func (sk *SecretKey) Encrypt(f *field.Field, m field.Element, rnd io.Reader) (Ciphertext, error) {
	cts, err := sk.EncryptVector(f, []field.Element{m}, rnd)
	if err != nil {
		return Ciphertext{}, err
	}
	return cts[0], nil
}

// EncryptVector encrypts each element of v, serially. It is exactly
// EncryptVectorParallel with one worker; both consume rnd identically.
func (sk *SecretKey) EncryptVector(f *field.Field, v []field.Element, rnd io.Reader) ([]Ciphertext, error) {
	return sk.EncryptVectorParallel(f, v, rnd, 1)
}

// EncryptVectorParallel encrypts v over a pool of workers. This is the
// verifier's per-batch Enc(r) setup — the e·|u| term of Figure 3's
// "construct queries" row. The holder of x needs no table for h: the
// public-key ciphertext (g^k, h^k·g^m) is the group element pair
// (g^k, g^((x·k + m) mod Q)), so each element costs two walks of the one
// generator table. The encryption exponents are drawn from rnd serially up
// front, in element order, so for a deterministic rnd the output is
// identical for every worker count; only the table walks are sharded.
func (sk *SecretKey) EncryptVectorParallel(f *field.Field, v []field.Element, rnd io.Reader, workers int) ([]Ciphertext, error) {
	g := sk.Group
	// exps interleaves each element's two exponents, k and x·k + m. A field
	// with p > Q has its m reduced here, as g^m always was.
	exps := make([]*big.Int, 2*len(v))
	for i := range v {
		k, err := randExponent(g.Q, rnd)
		if err != nil {
			return nil, err
		}
		b := new(big.Int).Mul(sk.X, k)
		b.Add(b, f.ToBig(v[i])).Mod(b, g.Q)
		exps[2*i], exps[2*i+1] = k, b
	}
	out := make([]Ciphertext, len(v))
	if len(v) == 0 {
		return out, nil
	}
	sc := g.reduceScalars(exps)
	tb := g.GeneratorTable()
	workers = max(1, min(workers, len(v)))
	_ = par.ForEach(context.Background(), workers, workers, func(s int) error {
		lo, hi := len(v)*s/workers, len(v)*(s+1)/workers
		obs.Default().Counter(MetricFixedBaseExps).Add(int64(2 * (hi - lo)))
		t := tb.m.scratch()
		acc := make([]uint64, tb.m.n)
		for i := lo; i < hi; i++ {
			out[i] = Ciphertext{A: tb.exp(&sc, 2*i, acc, t), B: tb.exp(&sc, 2*i+1, acc, t)}
		}
		return nil
	})
	return out, nil
}

// DecryptExp decrypts to g^m mod P (the message stays in the exponent).
func (sk *SecretKey) DecryptExp(ct Ciphertext) *big.Int {
	P := sk.Group.P
	// B · A^{-x} = g^m
	ax := new(big.Int).Exp(ct.A, sk.X, P)
	ax.ModInverse(ax, P)
	out := new(big.Int).Mul(ct.B, ax)
	return out.Mod(out, P)
}

// ExpOfField returns g^m mod P for a field element m — what DecryptExp would
// yield for a correct encryption of m. It runs off the generator's shared
// fixed-base table; the verifier's consistency check calls it per instance.
func (g *Group) ExpOfField(f *field.Field, m field.Element) *big.Int {
	return g.GeneratorTable().Exp(f.ToBig(m))
}

// One returns the ciphertext-neutral element Enc(0) with zero randomness —
// valid as an accumulator seed for homomorphic sums.
func (g *Group) One() Ciphertext {
	return Ciphertext{A: big.NewInt(1), B: big.NewInt(1)}
}

// Add returns a ciphertext encrypting m1 + m2.
func (g *Group) Add(c1, c2 Ciphertext) Ciphertext {
	a := new(big.Int).Mul(c1.A, c2.A)
	a.Mod(a, g.P)
	b := new(big.Int).Mul(c1.B, c2.B)
	b.Mod(b, g.P)
	return Ciphertext{A: a, B: b}
}

// ScalarMul returns a ciphertext encrypting s·m.
func (g *Group) ScalarMul(c Ciphertext, f *field.Field, s field.Element) Ciphertext {
	e := f.ToBig(s)
	return Ciphertext{
		A: new(big.Int).Exp(c.A, e, g.P),
		B: new(big.Int).Exp(c.B, e, g.P),
	}
}

// InnerProduct homomorphically computes Enc(Σ u_i·m_i) from Enc(m_i) and
// plaintext weights u. It is InnerProductPrepared on a one-off Prepare of
// cts, so every component of cts must be a nonzero residue mod P (honest
// Encrypt output is); a batch that commits many instances against one
// vector prepares it once instead.
func (g *Group) InnerProduct(cts []Ciphertext, f *field.Field, u []field.Element) (Ciphertext, error) {
	if len(cts) != len(u) {
		return Ciphertext{}, errors.New("elgamal: InnerProduct length mismatch")
	}
	return g.InnerProductPrepared(g.Prepare(cts), f, u, 1)
}

// GenerateGroup searches for a prime P = k·q + 1 with the given bit length
// and a generator of the order-q subgroup. It is used by tests with small
// fields; the production groups are compiled in (see params.go).
func GenerateGroup(q *big.Int, bitLen int, rnd io.Reader) (*Group, error) {
	if bitLen <= q.BitLen()+8 {
		return nil, errors.New("elgamal: group size too close to subgroup order")
	}
	one := big.NewInt(1)
	kbits := bitLen - q.BitLen()
	kbuf := make([]byte, (kbits+7)/8)
	for tries := 0; tries < 200000; tries++ {
		if _, err := io.ReadFull(rnd, kbuf); err != nil {
			return nil, err
		}
		k := new(big.Int).SetBytes(kbuf)
		k.SetBit(k, kbits-1, 1)
		if k.Bit(0) == 1 {
			k.Add(k, one)
		}
		P := new(big.Int).Mul(k, q)
		P.Add(P, one)
		if P.BitLen() != bitLen || !P.ProbablyPrime(20) {
			continue
		}
		for h := int64(2); h < 1000; h++ {
			g := new(big.Int).Exp(big.NewInt(h), k, P)
			if g.Cmp(one) != 0 {
				return &Group{P: P, G: g, Q: new(big.Int).Set(q)}, nil
			}
		}
	}
	return nil, errors.New("elgamal: no group found")
}
