package transport

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"slices"
	"time"

	"zaatar/internal/obs/trace"
	"zaatar/internal/vc"
)

// FarmError attributes a failure to one prover connection: the worker
// behind connection Leg, named Addr, failed with Err. The verifier client
// (internal/farm) wraps every failure of a worker's connection — I/O
// errors, remote phase errors, malformed replies, a refused handshake — in
// a FarmError, so a coordinator can tell worker death (errors.As with
// *FarmError) apart from verification failure (which is never an error: it
// surfaces as SessionResult.Accepted[i] == false). Unwrap exposes the
// underlying cause, so errors.As still finds a *RemoteError reported by
// the worker itself.
type FarmError struct {
	Addr string // worker address or name
	Leg  int    // index of the failed connection within the client
	Err  error
}

func (e *FarmError) Error() string {
	return fmt.Sprintf("transport: worker %s (leg %d): %v", e.Addr, e.Leg, e.Err)
}

func (e *FarmError) Unwrap() error { return e.Err }

// Conn is the verifier side of one handshaken prover connection. Open
// sends the hello; the Conn is then the vc.ProverLink for one batch at a
// time, and carries any number of batches in sequence. Commit is the
// commit exchange on the wire, Respond the decommit/responses exchange.
// Which verifier drives a batch, and when it is re-keyed, is the caller's
// business. A Conn is not safe for concurrent use.
type Conn struct {
	conn   net.Conn
	cc     *timedCodec
	ack    HelloAck
	n      int  // instances in flight, set by Commit
	broken bool // an exchange failed: the peer is mid-protocol or gone
	closed bool
}

// Open starts a prover session on conn with a stamped hello (Hello.Stamp):
// it sends the hello without its source, uploads the source if the prover
// asks for it, and checks the ack. An ack that reports an error, stamps
// another wire version or names a backend outside the hello's offer
// refuses the session. The context bounds only the handshake; on failure
// the caller closes conn.
func Open(ctx context.Context, conn net.Conn, hello Hello, ioTimeout time.Duration) (*Conn, error) {
	defer watch(ctx, conn)()
	c := &Conn{conn: conn, cc: newTimedCodec(conn, ioTimeout)}
	if err := c.handshake(hello); err != nil {
		return nil, ctxErr(ctx, err)
	}
	return c, nil
}

func (c *Conn) handshake(hello Hello) error {
	wire := hello
	wire.Source = ""
	if err := c.cc.send(wire); err != nil {
		return err
	}
	if err := c.cc.recv(&c.ack); err != nil {
		return err
	}
	if c.ack.SourceNeeded {
		// This prover does not hold the program in its memory cache:
		// upload the source the hello hashed.
		if err := c.cc.send(SourceMsg{Source: hello.Source}); err != nil {
			return err
		}
		c.ack = HelloAck{}
		if err := c.cc.recv(&c.ack); err != nil {
			return err
		}
	}
	switch {
	case c.ack.Err != "":
		return &RemoteError{Phase: "hello", Msg: c.ack.Err}
	case c.ack.Version != MaxProtocolVersion:
		return &ProtocolVersionError{Version: c.ack.Version, Max: MaxProtocolVersion}
	case !slices.Contains(hello.Backends, c.ack.Backend):
		return fmt.Errorf("%w: server picked %q, offered %v", ErrNoCommonBackend, c.ack.Backend, hello.Backends)
	}
	return nil
}

// Ack is the prover's answer to the hello: its io shape and the backend it
// picked.
func (c *Conn) Ack() HelloAck { return c.ack }

// exchange sends one frame and receives the reply into in.
func (c *Conn) exchange(ctx context.Context, out, in any) error {
	if c.closed {
		return ErrSessionClosed
	}
	defer watch(ctx, c.conn)()
	err := c.cc.send(out)
	if err == nil {
		err = c.cc.recv(in)
	}
	return ctxErr(ctx, err)
}

// Commit ships the commit request and instances and collects one
// commitment per instance.
func (c *Conn) Commit(ctx context.Context, req *vc.CommitRequest, instances [][]*big.Int) ([]*vc.Commitment, error) {
	var cms CommitmentsMsg
	err := c.exchange(ctx, BatchMsg{Req: req, Instances: instances}, &cms)
	switch {
	case err != nil:
	case cms.Err != "":
		err = &RemoteError{Phase: "commit", Msg: cms.Err}
	case len(cms.Items) != len(instances):
		err = errors.New("transport: commitment count mismatch")
	default:
		c.n = len(instances)
		return cms.Items, nil
	}
	c.broken = true
	return nil, err
}

// Respond reveals the decommit, collects one response per instance and
// imports the prover's trace spans into the caller's trace.
func (c *Conn) Respond(ctx context.Context, dec *vc.DecommitRequest, emit func(int, *vc.Response)) error {
	var resp ResponsesMsg
	err := c.exchange(ctx, DecommitMsg{Req: dec}, &resp)
	switch {
	case err != nil:
	case resp.Err != "":
		err = &RemoteError{Phase: "respond", Msg: resp.Err}
	case len(resp.Items) != c.n:
		err = errors.New("transport: response count mismatch")
	default:
		// Records from any other trace are dropped by Import.
		trace.FromContext(ctx).Import(resp.Trace)
		for i, r := range resp.Items {
			emit(i, r)
		}
		return nil
	}
	c.broken = true
	return err
}

// Close ends the session and closes the connection. A Conn whose batches
// all completed first sends the prover a goodbye frame, so it logs a clean
// end rather than a hangup; one whose exchange failed just hangs up. Close
// is idempotent; later batches fail with ErrSessionClosed.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if !c.broken {
		_ = c.cc.send(BatchMsg{Close: true})
	}
	_ = c.conn.Close()
}
