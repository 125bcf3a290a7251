package pcp

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"zaatar/internal/compiler"
	"zaatar/internal/constraint"
	"zaatar/internal/qap"
)

// PrecomputedCodec is the optional serialization seam a Backend implements
// so its precomputation can persist inside program bundles (internal/store)
// and warm-restart a server without re-running Precompute. Decode always
// receives the program the payload was encoded against — backends whose
// precomputation is cheap to rebuild may encode an empty payload and
// reconstruct from the program alone.
type PrecomputedCodec interface {
	// EncodePrecomputed serializes a value previously returned by this
	// backend's Precompute.
	EncodePrecomputed(pre Precomputed) ([]byte, error)
	// DecodePrecomputed restores a precomputation for prog from data.
	// Implementations must treat data as untrusted (it comes off disk) and
	// return an error — never panic — on anything malformed.
	DecodePrecomputed(prog *compiler.Program, data []byte) (Precomputed, error)
}

// EncodePrecomputed serializes a backend's precomputation, failing with a
// descriptive error when the backend does not implement PrecomputedCodec.
func EncodePrecomputed(bk Backend, pre Precomputed) ([]byte, error) {
	c, ok := bk.(PrecomputedCodec)
	if !ok {
		return nil, fmt.Errorf("pcp: backend %s does not support precomputation serialization", bk.Name())
	}
	return c.EncodePrecomputed(pre)
}

// DecodePrecomputed restores a backend's precomputation from bundle data.
func DecodePrecomputed(bk Backend, prog *compiler.Program, data []byte) (Precomputed, error) {
	c, ok := bk.(PrecomputedCodec)
	if !ok {
		return nil, fmt.Errorf("pcp: backend %s does not support precomputation serialization", bk.Name())
	}
	return c.DecodePrecomputed(prog, data)
}

// --- zaatar: the QAP's sparse rows; its O(|C|) tables are rebuilt on load.

func (zaatarBackend) EncodePrecomputed(pre Precomputed) ([]byte, error) {
	p, ok := pre.(*zaatarPre)
	if !ok {
		return nil, fmt.Errorf("pcp: zaatar codec got %T", pre)
	}
	return p.q.MarshalBinary()
}

func (zaatarBackend) DecodePrecomputed(prog *compiler.Program, data []byte) (Precomputed, error) {
	q, err := qap.UnmarshalQAP(prog.Field, data)
	if err != nil {
		return nil, err
	}
	if q.N != prog.Quad.NumVars || q.NC != prog.Quad.NumConstraints() {
		return nil, fmt.Errorf("pcp: decoded QAP (N=%d, NC=%d) does not match program (N=%d, NC=%d)",
			q.N, q.NC, prog.Quad.NumVars, prog.Quad.NumConstraints())
	}
	return &zaatarPre{q: q}, nil
}

// --- ginger: the precomputation is just a validated view of the program;
// nothing worth persisting, so the payload is empty and decode re-runs the
// (cheap) validation.

func (b gingerBackend) EncodePrecomputed(pre Precomputed) ([]byte, error) {
	if _, ok := pre.(*gingerPre); !ok {
		return nil, fmt.Errorf("pcp: ginger codec got %T", pre)
	}
	return nil, nil
}

func (b gingerBackend) DecodePrecomputed(prog *compiler.Program, data []byte) (Precomputed, error) {
	if len(data) != 0 {
		return nil, fmt.Errorf("pcp: ginger precomputation payload should be empty, got %d bytes", len(data))
	}
	return b.Precompute(prog)
}

// --- sumcheck: the layered circuit is a plain exported struct; gob it.

func (sumcheckBackend) EncodePrecomputed(pre Precomputed) ([]byte, error) {
	p, ok := pre.(*sumcheckPre)
	if !ok {
		return nil, fmt.Errorf("pcp: sumcheck codec got %T", pre)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p.circ); err != nil {
		return nil, fmt.Errorf("pcp: encode layered circuit: %w", err)
	}
	return buf.Bytes(), nil
}

func (sumcheckBackend) DecodePrecomputed(prog *compiler.Program, data []byte) (Precomputed, error) {
	var circ constraint.LayeredCircuit
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&circ); err != nil {
		return nil, fmt.Errorf("pcp: decode layered circuit: %w", err)
	}
	if len(circ.Layers) == 0 {
		return nil, fmt.Errorf("pcp: decoded layered circuit has no layers")
	}
	return &sumcheckPre{f: prog.Field, circ: &circ}, nil
}
