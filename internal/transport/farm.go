package transport

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"zaatar/internal/vc"
)

// FarmError attributes a session failure to one prover connection: the
// worker behind leg Leg (named by ClientOptions.Addrs, falling back to the
// connection's remote address) failed with Err. Sessions over more than one
// prover wrap every leg-level failure — I/O errors, remote phase errors,
// malformed replies — in a FarmError, so a coordinator can tell worker
// death (errors.As with *FarmError) apart from verification failure (which
// is never an error: it surfaces as SessionResult.Accepted[i] == false).
// Unwrap exposes the underlying cause, so errors.As still finds a
// *RemoteError reported by the worker itself.
type FarmError struct {
	Addr string // worker address or name
	Leg  int    // index of the failed connection within the session
	Err  error
}

func (e *FarmError) Error() string {
	return fmt.Sprintf("transport: worker %s (leg %d): %v", e.Addr, e.Leg, e.Err)
}

func (e *FarmError) Unwrap() error { return e.Err }

// legError wraps a leg-level failure in a *FarmError on multi-prover
// sessions; single-prover sessions keep their errors undressed (there is
// only one worker the failure could belong to).
func (s *Session) legError(i int, err error) error {
	if !s.multi {
		return err
	}
	return s.shardError(i, err)
}

// shardError always wraps: the per-leg shard operations exist for farm
// coordinators, where attribution is the point even on a one-worker farm.
func (s *Session) shardError(i int, err error) error {
	if err == nil {
		return err
	}
	var fe *FarmError
	if errors.As(err, &fe) {
		return err
	}
	return &FarmError{Addr: s.legs[i].addr, Leg: i, Err: err}
}

// NumLegs reports how many prover connections the session spans.
func (s *Session) NumLegs() int { return len(s.legs) }

// LegAddr names the worker behind leg i (ClientOptions.Addrs when given,
// otherwise the connection's remote address).
func (s *Session) LegAddr(i int) string { return s.legs[i].addr }

// Verifier exposes the session's verifier so a coordinator can drive the
// commit/decommit phases itself (see ShardCommit/ShardRespond) or Fork
// per-shard verifiers off its precomputation. The verifier is not safe for
// concurrent use; coordinators fork one per in-flight shard.
func (s *Session) Verifier() *vc.Verifier { return s.verifier }

// CloseLeg tears down one prover connection without ending the session —
// the farm's way of retiring a dead worker while the surviving legs keep
// serving. Operations on a closed leg fail with a *FarmError wrapping the
// connection error.
func (s *Session) CloseLeg(i int) error {
	return s.legs[i].conn.Close()
}

// ShardCommit runs the commit half of one mini-batch on leg i alone: it
// ships req (a fresh per-shard commit request — shards are independent
// batches, each with its own key and seed) together with the shard's
// instances, and collects the per-instance commitments. The caller must
// follow with ShardRespond on the same leg before starting this leg's next
// shard; distinct legs may run shards concurrently.
func (s *Session) ShardCommit(ctx context.Context, i int, req *vc.CommitRequest, instances [][]*big.Int) ([]*vc.Commitment, error) {
	cms, err := s.commitLeg(ctx, i, req, instances)
	return cms, s.shardError(i, err)
}

// ShardRespond completes leg i's in-flight shard of n instances: it reveals
// the decommit (seed + consistency points) and collects the per-instance
// responses, stitching the worker's trace spans into the session's
// timeline. Must follow a successful ShardCommit on the same leg.
func (s *Session) ShardRespond(ctx context.Context, i int, dreq *vc.DecommitRequest, n int) ([]*vc.Response, error) {
	resps, err := s.respondLeg(ctx, i, dreq, n)
	return resps, s.shardError(i, err)
}

// commitLeg is the commit exchange of one batch on leg i, shared by
// RunBatch and ShardCommit: the commit request and instances out, one
// commitment per instance back.
func (s *Session) commitLeg(ctx context.Context, i int, req *vc.CommitRequest, instances [][]*big.Int) ([]*vc.Commitment, error) {
	leg := s.legs[i]
	leg.mu.Lock()
	defer leg.mu.Unlock()
	defer watch(ctx, leg.conn)()
	if err := leg.cc.send(BatchMsg{Req: req, Instances: instances}); err != nil {
		return nil, ctxErr(ctx, err)
	}
	var cms CommitmentsMsg
	if err := leg.cc.recv(&cms); err != nil {
		return nil, ctxErr(ctx, err)
	}
	if cms.Err != "" {
		return nil, &RemoteError{Phase: "commit", Msg: cms.Err}
	}
	if len(cms.Items) != len(instances) {
		return nil, errors.New("transport: commitment count mismatch")
	}
	return cms.Items, nil
}

// respondLeg is the respond exchange of one batch of n instances on leg i,
// shared by RunBatch and ShardRespond: the decommit out, one response per
// instance back, the prover's trace spans imported.
func (s *Session) respondLeg(ctx context.Context, i int, dreq *vc.DecommitRequest, n int) ([]*vc.Response, error) {
	leg := s.legs[i]
	leg.mu.Lock()
	defer leg.mu.Unlock()
	defer watch(ctx, leg.conn)()
	if err := leg.cc.send(DecommitMsg{Req: dreq}); err != nil {
		return nil, ctxErr(ctx, err)
	}
	var resp ResponsesMsg
	if err := leg.cc.recv(&resp); err != nil {
		return nil, ctxErr(ctx, err)
	}
	if resp.Err != "" {
		return nil, &RemoteError{Phase: "respond", Msg: resp.Err}
	}
	if len(resp.Items) != n {
		return nil, errors.New("transport: response count mismatch")
	}
	// Records from any other trace are dropped by Import.
	s.tc.Import(resp.Trace)
	return resp.Items, nil
}
