package elgamal

import (
	"math/big"

	"zaatar/internal/obs"
)

// FixedBaseTable is a windowed precomputation for repeated exponentiation
// of the group generator: entries[j][d] = G^(d·2^(w·j)) in Montgomery form,
// for every w-bit digit d and window j. One exponentiation then costs at
// most ceil(qbits/w) − 1 group mults and no squarings — roughly an order of
// magnitude under a generic modexp. The verifier's EncryptVector (two walks
// per element: g^k and g^(x·k + m)) and the consistency check's g^m
// evaluations are the consumers. A Group builds its table once, on first
// use, and shares it; the verifier never needs a table for its h, because
// it holds x.
type FixedBaseTable struct {
	g       *Group
	m       *montCtx
	w       int      // window width in bits
	nwin    int      // ceil(qbits / w)
	entries []uint64 // nwin · (2^w − 1) · mn limbs
}

// fixedBaseWindow is the table window width: 43 windows of 6 bits for a
// 254-bit subgroup order, ~350 KB per table at 1024-bit P, amortizing its
// build cost (~2.7k mults) after roughly nine exponentiations.
const fixedBaseWindow = 6

// GeneratorTable returns the fixed-base table for the group generator G,
// building it on first use.
func (g *Group) GeneratorTable() *FixedBaseTable {
	k := g.kern()
	k.gonce.Do(func() { k.gen = newFixedBaseTable(g) })
	return k.gen
}

// newFixedBaseTable builds the generator's table: within window j the
// entries are a running product by G^(2^(w·j)), and the next window's base
// power is one more multiplication ((2^w−1)+1 = 2^w).
func newFixedBaseTable(g *Group) *FixedBaseTable {
	m := g.kern().m
	mn := m.n
	w := fixedBaseWindow
	nwin := (g.Q.BitLen() + w - 1) / w
	tabLen := 1<<uint(w) - 1

	tb := &FixedBaseTable{g: g, m: m, w: w, nwin: nwin, entries: make([]uint64, nwin*tabLen*mn)}
	t := m.scratch()
	cur := make([]uint64, mn)
	m.toMont(cur, new(big.Int).Mod(g.G, g.P), t)
	for j := 0; j < nwin; j++ {
		row := tb.entries[j*tabLen*mn:]
		copy(row[:mn], cur)
		for d := 2; d <= tabLen; d++ {
			m.mul(row[(d-1)*mn:d*mn], row[(d-2)*mn:(d-1)*mn], cur, t)
		}
		if j+1 < nwin {
			m.mul(cur, row[(tabLen-1)*mn:tabLen*mn], cur, t)
		}
	}
	obs.Default().Counter(MetricFixedBaseTables).Inc()
	return tb
}

// exp returns G^e mod P for the reduced scalar i of sc, walking the table
// once in the Montgomery domain; acc (mn limbs) and t are scratch.
func (tb *FixedBaseTable) exp(sc *scalars, i int, acc, t []uint64) *big.Int {
	m := tb.m
	mn := m.n
	tabLen := 1<<uint(tb.w) - 1
	started := false
	for j := 0; j < tb.nwin; j++ {
		d := int(sc.digit(i, j*tb.w, tb.w))
		if d == 0 {
			continue
		}
		e := tb.entries[(j*tabLen+d-1)*mn : (j*tabLen+d)*mn]
		if started {
			m.mul(acc, acc, e, t)
		} else {
			copy(acc, e)
			started = true
		}
	}
	if !started {
		return big.NewInt(1)
	}
	return m.fromMont(acc, t)
}

// Exp returns G^e mod P. Exponents are reduced mod Q (G has order Q), so
// any non-negative e — including values at or above the subgroup order —
// matches the generic modexp.
func (tb *FixedBaseTable) Exp(e *big.Int) *big.Int {
	obs.Default().Counter(MetricFixedBaseExps).Inc()
	sc := tb.g.reduceScalars([]*big.Int{e})
	return tb.exp(&sc, 0, make([]uint64, tb.m.n), tb.m.scratch())
}
