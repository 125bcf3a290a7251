package pcp

import "zaatar/internal/field"

// QueryList is one oracle's queries in factored form. Most of the queries
// of Figure 10, and of Ginger's PCP, are sums of others — the linearity test's
// third query q₅+q₆, the self-corrected q_a+q₅⁰ — so only the drawn vectors
// are stored (Base), and each logical query, in wire order, names the base
// vectors it sums (Sums). The honest prover answers a sum by adding the
// answers of its terms, and the verifier folds a query's α onto each of its
// terms; both are exact by linearity, so answers, α's and the consistency
// point t are the same field values as for the materialised vectors.
type QueryList struct {
	Base [][]field.Element
	Sums [][]int // Sums[i] indexes Base; logical query i is Σ_{j∈Sums[i]} Base[j]
}

// Len is the number of logical queries: the responses a prover sends.
func (l QueryList) Len() int { return len(l.Sums) }

// draw appends a base vector and returns its index.
func (l *QueryList) draw(v []field.Element) int {
	l.Base = append(l.Base, v)
	return len(l.Base) - 1
}

// query appends a logical query summing the given base vectors.
func (l *QueryList) query(terms ...int) {
	l.Sums = append(l.Sums, terms)
}

// triple appends one linearity-test iteration, the queries (a, b, a+b) for
// two drawn vectors, and returns a's base index.
func (l *QueryList) triple(a, b []field.Element) int {
	i, j := l.draw(a), l.draw(b)
	l.query(i)
	l.query(j)
	l.query(i, j)
	return i
}

// Vectors materialises every logical query, in wire order. A single-term
// query shares its base vector; a sum is a fresh vector.
func (l QueryList) Vectors(f *field.Field) [][]field.Element {
	out := make([][]field.Element, len(l.Sums))
	for i, terms := range l.Sums {
		v := l.Base[terms[0]]
		for _, j := range terms[1:] {
			v = f.AddVec(v, l.Base[j])
		}
		out[i] = v
	}
	return out
}

// Answer evaluates the linear function ⟨·, u⟩ on every logical query — the
// honest prover's responses — with one inner product per base vector and
// field additions for the sums.
func (l QueryList) Answer(f *field.Field, u []field.Element) []field.Element {
	base := make([]field.Element, len(l.Base))
	for j, b := range l.Base {
		base[j] = f.InnerProduct(b, u)
	}
	out := make([]field.Element, len(l.Sums))
	for i, terms := range l.Sums {
		a := base[terms[0]]
		for _, j := range terms[1:] {
			a = f.Add(a, base[j])
		}
		out[i] = a
	}
	return out
}

// linearQueries is the Queries value of both commitment backends: the two
// oracles' factored lists plus the backend's per-instance checks.
type linearQueries struct {
	f      *field.Field
	q1, q2 QueryList
	decide func(r1, r2, io []field.Element) CheckResult
}

func (q linearQueries) Vectors() ([][]field.Element, [][]field.Element) {
	return q.q1.Vectors(q.f), q.q2.Vectors(q.f)
}

func (q linearQueries) Lists() (QueryList, QueryList) { return q.q1, q.q2 }

func (q linearQueries) Answer(proof *Proof) ([]field.Element, []field.Element, error) {
	return q.q1.Answer(q.f, proof.U1), q.q2.Answer(q.f, proof.U2), nil
}

func (q linearQueries) Decide(r1, r2, io []field.Element) CheckResult {
	return q.decide(r1, r2, io)
}
