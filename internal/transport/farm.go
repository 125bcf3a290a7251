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
	return s.attribute(i, err)
}

// attribute wraps err (when non-nil and not already attributed) in a
// *FarmError naming leg i's worker.
func (s *Session) attribute(i int, err error) error {
	var fe *FarmError
	if err == nil || errors.As(err, &fe) {
		return err
	}
	return &FarmError{Addr: s.legs[i].addr, Leg: i, Err: err}
}

// NumLegs reports how many prover connections the session spans.
func (s *Session) NumLegs() int { return len(s.legs) }

// LegAddr names the worker behind leg i (ClientOptions.Addrs when given,
// otherwise the connection's remote address).
func (s *Session) LegAddr(i int) string { return s.legs[i].addr }

// Verifier exposes the session's verifier so a coordinator can Fork
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

// Leg returns the prover link over leg i alone, for a farm coordinator to
// vc.Drive one shard through: each shard is an independent wire batch
// with its own commit request, key and seed. Every failure is a *FarmError
// naming the worker — attribution is the point even on a one-worker farm.
// Distinct legs may run shards concurrently; one link carries one batch.
func (s *Session) Leg(i int) vc.ProverLink {
	return &legLink{s: s, i: i, farm: true}
}

// legLink is the vc.ProverLink over one prover connection: Commit is the
// commit exchange on the wire, Respond the decommit/responses exchange.
type legLink struct {
	s    *Session
	i    int
	farm bool // attribute every failure to the worker (*FarmError)
	n    int  // instances in flight, set by Commit
}

// exchange sends one frame on the leg and receives the reply into in,
// holding the leg for the round trip; failures are attributed on farm
// links.
func (l *legLink) exchange(ctx context.Context, out, in any) (err error) {
	leg := l.s.legs[l.i]
	leg.mu.Lock()
	defer leg.mu.Unlock()
	defer watch(ctx, leg.conn)()
	if err = leg.cc.send(out); err == nil {
		err = leg.cc.recv(in)
	}
	return l.fail(ctxErr(ctx, err))
}

func (l *legLink) fail(err error) error {
	if l.farm {
		return l.s.attribute(l.i, err)
	}
	return err
}

// Commit ships the commit request and instances and collects one
// commitment per instance.
func (l *legLink) Commit(ctx context.Context, req *vc.CommitRequest, instances [][]*big.Int) ([]*vc.Commitment, error) {
	l.n = len(instances)
	var cms CommitmentsMsg
	switch err := l.exchange(ctx, BatchMsg{Req: req, Instances: instances}, &cms); {
	case err != nil:
		return nil, err
	case cms.Err != "":
		return nil, l.fail(&RemoteError{Phase: "commit", Msg: cms.Err})
	case len(cms.Items) != l.n:
		return nil, l.fail(errors.New("transport: commitment count mismatch"))
	}
	return cms.Items, nil
}

// Respond reveals the decommit, collects one response per instance and
// imports the prover's trace spans into the session's timeline.
func (l *legLink) Respond(ctx context.Context, dec *vc.DecommitRequest, emit func(int, *vc.Response)) error {
	var resp ResponsesMsg
	switch err := l.exchange(ctx, DecommitMsg{Req: dec}, &resp); {
	case err != nil:
		return err
	case resp.Err != "":
		return l.fail(&RemoteError{Phase: "respond", Msg: resp.Err})
	case len(resp.Items) != l.n:
		return l.fail(errors.New("transport: response count mismatch"))
	}
	// Records from any other trace are dropped by Import.
	l.s.tc.Import(resp.Trace)
	for i, r := range resp.Items {
		emit(i, r)
	}
	return nil
}
