package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"math/big"
	"net"
	"testing"

	"zaatar/internal/obs/trace"
	"zaatar/internal/vc"
)

// tracedContext roots a fresh trace for the client side of a session.
func tracedContext(t *testing.T) (context.Context, *trace.Ctx) {
	t.Helper()
	tc := trace.New(trace.NewRecorder(4096), "verifier")
	return trace.NewContext(context.Background(), tc), tc
}

// checkNoOrphans asserts the recorded span tree is closed: every record's
// parent is either the trace root (zero) or itself a recorded span.
func checkNoOrphans(t *testing.T, recs []trace.Record) {
	t.Helper()
	ids := make(map[trace.SpanID]bool, len(recs))
	for _, r := range recs {
		ids[r.Span] = true
	}
	for _, r := range recs {
		if r.Parent != 0 && !ids[r.Parent] {
			t.Errorf("span %q (%x) has unrecorded parent %x", r.Name, r.Span, r.Parent)
		}
	}
}

func byName(recs []trace.Record, name string) []trace.Record {
	var out []trace.Record
	for _, r := range recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// TestTracePropagation runs a full traced session and checks that the
// prover's spans come back over the wire and stitch under the verifier's
// session span in one trace.
func TestTracePropagation(t *testing.T) {
	ctx, tc := tracedContext(t)
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- serve(context.Background(), server, ServiceOptions{Workers: 2}) }()
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	batch := [][]*big.Int{{big.NewInt(10)}, {big.NewInt(3)}}
	res, err := oneBatch(ctx, client, hello, clientOpts{Seed: []byte("tr")}, batch)
	client.Close()
	if serr := <-errCh; serr != nil {
		t.Fatalf("server: %v", serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAccepted() {
		t.Fatalf("rejected: %v", res.Reasons)
	}

	recs := tc.Recorder().Snapshot()
	checkNoOrphans(t, recs)
	for _, r := range recs {
		if r.Trace != tc.TraceID() {
			t.Fatalf("span %q carries foreign trace %x", r.Name, r.Trace)
		}
	}
	// Both sides contributed spans.
	sessions := byName(recs, "transport.session")
	serves := byName(recs, "transport.serve")
	if len(sessions) != 1 || sessions[0].Proc != "verifier" {
		t.Fatalf("transport.session spans: %+v", sessions)
	}
	if len(serves) != 1 || serves[0].Proc != "prover" {
		t.Fatalf("transport.serve spans: %+v", serves)
	}
	// The prover's session root hangs off the verifier's session span:
	// that is the wire propagation working end to end.
	if serves[0].Parent != sessions[0].Span {
		t.Fatalf("transport.serve parent %x, want verifier session span %x", serves[0].Parent, sessions[0].Span)
	}
	// Every protocol phase appears as the verifier's span — Drive names
	// them identically on every link — while the per-instance work spans
	// belong to the prover.
	for name, wantProc := range map[string]string{
		"vc.setup":       "verifier",
		"vc.commit":      "verifier",
		"vc.decommit":    "verifier",
		"vc.respond":     "verifier",
		"vc.verify":      "verifier",
		"prover.commit":  "prover",
		"prover.respond": "prover",
	} {
		got := byName(recs, name)
		if len(got) == 0 {
			t.Fatalf("no %q span in trace", name)
		}
		for _, r := range got {
			if r.Proc != wantProc {
				t.Fatalf("%q recorded by %q, want %q", name, r.Proc, wantProc)
			}
		}
	}
	if got := byName(recs, "prover.commit"); len(got) != len(batch) {
		t.Fatalf("prover.commit spans: %d, want %d", len(got), len(batch))
	}
}

// TestTraceLegacyPeer: a traced client against a prover from an older
// build — it acks without a version — refuses the session at the hello,
// and its trace is still a closed tree with no span from the other side.
func TestTraceLegacyPeer(t *testing.T) {
	ctx, tc := tracedContext(t)
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() { errCh <- ackingServer(server, HelloAck{NumInputs: 1, NumOutputs: 2}) }()
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	_, err := oneBatch(ctx, client, hello, clientOpts{Seed: []byte("lg")}, [][]*big.Int{{big.NewInt(8)}})
	client.Close()
	if serr := <-errCh; serr != nil {
		t.Fatalf("legacy server: %v", serr)
	}
	var vErr *ProtocolVersionError
	if !errors.As(err, &vErr) {
		t.Fatalf("err = %v, want *ProtocolVersionError", err)
	}
	recs := tc.Recorder().Snapshot()
	checkNoOrphans(t, recs)
	if len(byName(recs, "transport.session")) != 1 {
		t.Fatalf("session root missing from %d records", len(recs))
	}
	for _, r := range recs {
		if r.Proc != "verifier" {
			t.Fatalf("unexpected %q span from %q — a refused peer cannot contribute spans", r.Name, r.Proc)
		}
	}
}

// TestTraceDisconnectNoOrphans drops the connection mid-session (after the
// commitments, before the responses) and checks the client's trace is still
// a closed tree: the error paths end every started span via defer, and no
// prover spans leak in because the final message never arrived.
func TestTraceDisconnectNoOrphans(t *testing.T) {
	ctx, tc := tracedContext(t)
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		dec, enc := gob.NewDecoder(server), gob.NewEncoder(server)
		h, prog, err := acceptHello(dec, enc)
		if err != nil {
			t.Error(err)
			return
		}
		prover, err := vc.NewProver(prog, h.Config(1, nil, h.Backends[0]))
		if err != nil {
			t.Error(err)
			return
		}
		var b BatchMsg
		if err := dec.Decode(&b); err != nil {
			t.Error(err)
			return
		}
		prover.HandleCommitRequest(b.Req)
		cms := CommitmentsMsg{Items: make([]*vc.Commitment, len(b.Instances))}
		for i := range b.Instances {
			if cms.Items[i], _, err = prover.Commit(context.Background(), b.Instances[i]); err != nil {
				t.Error(err)
				return
			}
		}
		if err := enc.Encode(cms); err != nil {
			t.Error(err)
			return
		}
		// Hang up instead of answering the decommit.
	}()
	hello := Hello{Source: sessionSrc, Backends: zaatarOnly, RhoLin: 1, Rho: 1, NoCommitment: true}
	_, err := oneBatch(ctx, client, hello, clientOpts{Seed: []byte("dc")}, [][]*big.Int{{big.NewInt(2)}})
	client.Close()
	<-done
	if err == nil {
		t.Fatal("session with a disconnecting prover should fail")
	}
	recs := tc.Recorder().Snapshot()
	checkNoOrphans(t, recs)
	if len(byName(recs, "transport.session")) != 1 {
		t.Fatalf("session root missing from %d records", len(recs))
	}
	for _, r := range recs {
		if r.Proc == "prover" {
			t.Fatalf("prover span %q leaked into an aborted session", r.Name)
		}
	}
}
