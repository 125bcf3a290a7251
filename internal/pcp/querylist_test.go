package pcp

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zaatar/internal/commit"
	"zaatar/internal/field"
	"zaatar/internal/prg"
	"zaatar/internal/qap"
)

func digest(parts ...[]field.Element) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(field.AppendElements(nil, p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// answerEach is the reference prover: one inner product per materialised
// query.
func answerEach(f *field.Field, u []field.Element, queries [][]field.Element) []field.Element {
	out := make([]field.Element, len(queries))
	for i, q := range queries {
		out[i] = f.InnerProduct(q, u)
	}
	return out
}

// foldDigest hashes both oracles' consistency points and α's, drawn from
// fixed readers, plus where the α reader stands afterwards. fold is either
// the factored ConsistencyPoint or BuildDecommit over materialised queries.
// Oracles are numbered 0 and 1.
func foldDigest(t *testing.T, f *field.Field, n1, n2 int, fold func(k *commit.Key, oracle int, rnd *prg.ChaCha) ([]field.Element, commit.Secrets, error)) string {
	t.Helper()
	keys := prg.NewFromSeed([]byte("query plane pin: r"), 0)
	k1 := &commit.Key{F: f, R: f.RandVector(n1, keys)}
	k2 := &commit.Key{F: f, R: f.RandVector(n2, keys)}
	alphas := prg.NewFromSeed([]byte("query plane pin: alpha"), 0)
	t1, s1, err := fold(k1, 0, alphas)
	if err != nil {
		t.Fatal(err)
	}
	t2, s2, err := fold(k2, 1, alphas)
	if err != nil {
		t.Fatal(err)
	}
	return digest(t1, t2, s1.Alphas, s2.Alphas, []field.Element{{alphas.Uint64()}})
}

// TestQueryPlanePinned pins what the query plane puts on the wire and into
// the consistency test, on every field and for both commitment backends:
// the materialised logical queries, the honest answers, and the consistency
// points t with their α's. The digests were taken when every query was
// stored as its own vector, answered with its own inner product and folded
// with its own term; the factored lists must reproduce them exactly, and
// Answer must agree with one inner product per materialised query.
func TestQueryPlanePinned(t *testing.T) {
	pins := map[string]queryPin{
		"zaatar/F128":  {"e4187261e819741a60cf025c61561d6dd37fca034f14521cbd1f5061f7425361", "a8d24f273a5a7f819f1daff1e035b0c4d761e3da7b5138ab62286b7a00432d6d", "cdf70acdc0405a27c1eb43b2b7dae1b668bf773ef247a0a0751717dfbbcb0e80"},
		"ginger/F128":  {"22ed47524095d824fc82fa197b96a44cc0bafe005c717974d29b1817cad18deb", "4157dea0cc7a16d00daf840e282caed7c496b227fe857f90a006a5d730d15ea7", "59ec7c6fe911e459894a0a35b6247c8a95a52a3d9f55c4d5667dc5394a5f41ad"},
		"zaatar/F220":  {"50b8af936f8ea87a9ba1fa96540ba8b08bea7e719ddc455cca084fd29db330bd", "33e6f05a78da6d6e128e924ae80083fd8102ac83471583a5f9fc62188c2e307e", "8efc19a5cdc74a905fb8441186d9a4791b8284cd10889e133a271c1e58d5c77a"},
		"ginger/F220":  {"77d5aab5e16a36dd20293fba3dd542b0e238a1f28683fb25b3f07360ffddb7d8", "6e67b2c3a9bda8a85775c0c074e46582403d96a68cfbc19a5e8db719b67f19fa", "a696c225a00b78a001b044833be2d30aeede42bb79b2064484076c735e2f0237"},
		"zaatar/FTest": {"b8ab705d20948628c8484d9170f5f04fd716f28007b554922e979b80fb1a48cf", "d86923afe46decb857f0ccf41bb337acbcc0b7efe5bced555ce9f96ea22102d2", "d9c4cd9f634188c1c53b40cd67ef1ccc560c0d90772c48813e66375139e15925"},
		"ginger/FTest": {"4f39b53d483d1b5428e2d9eb09ef9743c460b081cd1f4c8db3c2300e5051bd30", "ff2be2babd4fd6a1cbd02d0a330d7d5e39c8e35f140683bbce2782fae97ef8c1", "c5d54b0e25590ae397800b75f7013b32e9753fcf47f454c4c31920bd7fff2b35"},
		"zaatar/FTiny": {"fa42bf89708dc7dbc8f239db1158f34f636d96c0e4ab6063617ac715010c67b0", "d4199c3600ae19802aac95ba1b0643b2a07d250ec75b1d292897e4faefd7bc13", "509b435045d5d5e83802e6a8dcc4afb4e9056899c2a1dbcc15df98f8b2a71f88"},
		"ginger/FTiny": {"e296ff4ab6a2d025c96805e5a4f5094d3aef1e70526cc7cd5b17a9aa5bc10b4a", "df1939e0a9bc98e8d0465cf0d1335fa8be78963bb878ae755ec0e191482c4c58", "cf54f1f8cb0d86a25276aa90a56ab621cab45a5ce31a12c7a94d12cfaaed2012"},
	}
	p := Params{RhoLin: 2, Rho: 2}
	for _, f := range []*field.Field{field.F128(), field.F220(), field.FTest(), field.FTiny()} {
		qs, witness := squareChainQuad(f, 6)
		q, err := qap.New(f, qs)
		if err != nil {
			t.Fatal(err)
		}
		z, err := NewZaatar(q, p, prg.NewFromSeed([]byte("query plane pin"), 0))
		if err != nil {
			t.Fatal(err)
		}
		u1, u2, err := BuildProof(q, witness(3))
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, "zaatar/"+f.Name(), pins["zaatar/"+f.Name()], f, z.Z, z.H, u1, u2)

		gs, gw := xSquarePlusX(f)
		g, err := NewGinger(f, gs, p, prg.NewFromSeed([]byte("query plane pin"), 0))
		if err != nil {
			t.Fatal(err)
		}
		g1, g2, err := BuildGingerProof(f, gs, gw(7))
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, "ginger/"+f.Name(), pins["ginger/"+f.Name()], f, g.Z1, g.Z2, g1, g2)
	}
}

// queryPin holds one backend and field's digests.
type queryPin struct{ queries, answers, fold string }

func checkPinned(t *testing.T, name string, want queryPin, f *field.Field, l1, l2 QueryList, u1, u2 []field.Element) {
	t.Helper()
	v1, v2 := l1.Vectors(f), l2.Vectors(f)
	if got := digest(append(append([][]field.Element(nil), v1...), v2...)...); got != want.queries {
		t.Errorf("%s: materialised queries digest %s, want %s", name, got, want.queries)
	}

	a1, a2 := l1.Answer(f, u1), l2.Answer(f, u2)
	r1, r2 := answerEach(f, u1, v1), answerEach(f, u2, v2)
	if len(a1) != len(r1) || len(a2) != len(r2) {
		t.Fatalf("%s: %d+%d answers, want %d+%d", name, len(a1), len(a2), len(r1), len(r2))
	}
	for i := range r1 {
		if a1[i] != r1[i] {
			t.Errorf("%s: oracle 1 answer %d = %v, want ⟨q, u⟩ = %v", name, i, f.ToBig(a1[i]), f.ToBig(r1[i]))
		}
	}
	for i := range r2 {
		if a2[i] != r2[i] {
			t.Errorf("%s: oracle 2 answer %d = %v, want ⟨q, u⟩ = %v", name, i, f.ToBig(a2[i]), f.ToBig(r2[i]))
		}
	}
	if got := digest(a1, a2); got != want.answers {
		t.Errorf("%s: answers digest %s, want %s", name, got, want.answers)
	}

	factored := foldDigest(t, f, len(u1), len(u2), func(k *commit.Key, oracle int, rnd *prg.ChaCha) ([]field.Element, commit.Secrets, error) {
		l := [2]QueryList{l1, l2}[oracle]
		return k.ConsistencyPoint(l.Base, l.Sums, rnd)
	})
	if factored != want.fold {
		t.Errorf("%s: factored fold digest %s, want %s", name, factored, want.fold)
	}
	materialised := foldDigest(t, f, len(u1), len(u2), func(k *commit.Key, oracle int, rnd *prg.ChaCha) ([]field.Element, commit.Secrets, error) {
		d, s, err := k.BuildDecommit([2][][]field.Element{v1, v2}[oracle], rnd)
		return d.T, s, err
	})
	if materialised != want.fold {
		t.Errorf("%s: materialised fold digest %s, want %s", name, materialised, want.fold)
	}
}
