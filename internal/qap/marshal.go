package qap

import (
	"encoding/binary"
	"fmt"

	"zaatar/internal/field"
)

// Binary serialization of the QAP encoding, so a program bundle can restore
// a prover's precomputation without walking the constraint system again.
// Only the sparse rows are serialized; the O(|C|) tables are a function of
// (field, |C|) and are rebuilt on load (one NTT and two batched inversions).

func appendRows(dst []byte, rows [][]Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		for _, e := range row {
			dst = binary.AppendUvarint(dst, uint64(e.J))
			dst = field.AppendElement(dst, e.V)
		}
	}
	return dst
}

func decodeRows(b []byte, nc int) ([][]Entry, []byte, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, nil, fmt.Errorf("qap: bad row-count prefix")
	}
	b = b[used:]
	if n > uint64(len(b)) { // a row takes at least its one-byte length prefix
		return nil, nil, fmt.Errorf("qap: %d rows in %d bytes", n, len(b))
	}
	rows := make([][]Entry, n)
	for i := range rows {
		m, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, nil, fmt.Errorf("qap: bad row length prefix")
		}
		b = b[used:]
		if m == 0 {
			continue
		}
		if m > uint64(len(b)) {
			return nil, nil, fmt.Errorf("qap: row of %d entries in %d bytes", m, len(b))
		}
		row := make([]Entry, m)
		for k := range row {
			j, used := binary.Uvarint(b)
			if used <= 0 {
				return nil, nil, fmt.Errorf("qap: bad entry index")
			}
			if j < 1 || j > uint64(nc) {
				return nil, nil, fmt.Errorf("qap: entry point σ_%d outside 1..%d", j, nc)
			}
			b = b[used:]
			var err error
			var v field.Element
			v, b, err = field.DecodeElement(b)
			if err != nil {
				return nil, nil, err
			}
			row[k] = Entry{J: int(j), V: v}
		}
		rows[i] = row
	}
	return rows, b, nil
}

// MarshalBinary serializes the QAP. The field itself is not encoded — the
// bundle header names it — so UnmarshalQAP takes the Field explicitly.
func (q *QAP) MarshalBinary() ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(q.NC))
	dst = binary.AppendUvarint(dst, uint64(q.N))
	dst = binary.AppendUvarint(dst, uint64(q.NZ))
	dst = binary.AppendUvarint(dst, uint64(q.nnz))
	dst = appendRows(dst, q.A)
	dst = appendRows(dst, q.B)
	dst = appendRows(dst, q.C)
	return dst, nil
}

// UnmarshalQAP restores a QAP serialized by MarshalBinary over the given
// field. Structural inconsistencies (row counts, entry indices, trailing
// garbage, a size the field cannot carry) return an error; callers treat any
// error as a cache miss.
func UnmarshalQAP(f *field.Field, b []byte) (*QAP, error) {
	var dims [4]uint64
	for i := range dims {
		v, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, fmt.Errorf("qap: truncated header")
		}
		dims[i] = v
		b = b[used:]
	}
	q := &QAP{F: f, NC: int(dims[0]), N: int(dims[1]), NZ: int(dims[2]), nnz: int(dims[3])}
	// The tables below are sized by NC, which must therefore be bounded by
	// what was actually read: every constraint a compiler emits has at least
	// one entry, and an entry takes at least two bytes.
	if q.NC < 1 || q.NC > len(b) || q.N < 0 || q.NZ < 0 || q.NZ > q.N {
		return nil, fmt.Errorf("qap: implausible dimensions NC=%d N=%d NZ=%d", q.NC, q.N, q.NZ)
	}
	var err error
	if q.A, b, err = decodeRows(b, q.NC); err != nil {
		return nil, err
	}
	if q.B, b, err = decodeRows(b, q.NC); err != nil {
		return nil, err
	}
	if q.C, b, err = decodeRows(b, q.NC); err != nil {
		return nil, err
	}
	if len(q.A) != q.N+1 || len(q.B) != q.N+1 || len(q.C) != q.N+1 {
		return nil, fmt.Errorf("qap: row count does not match N=%d", q.N)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("qap: %d trailing bytes after decode", len(b))
	}
	if err := q.initTables(); err != nil {
		return nil, err
	}
	return q, nil
}
