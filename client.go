package zaatar

import (
	"context"
	"fmt"
	"math/big"
	"net"
	"strings"
	"time"

	"zaatar/internal/compiler"
	"zaatar/internal/farm"
	"zaatar/internal/field"
	"zaatar/internal/transport"
)

// SessionResult is the verifier-side outcome of one batch run against a
// remote prover: per-instance acceptance, rejection reasons, and claimed
// outputs.
type SessionResult = transport.SessionResult

// ProtocolVersionError reports a wire protocol version this build does not
// speak; errors.As with *ProtocolVersionError distinguishes it from other
// dial failures.
type ProtocolVersionError = transport.ProtocolVersionError

// Client is the verifier side of a kept-alive session with one or more
// prover servers: a prover farm (internal/farm), of one worker when Dial
// opened it. Dial and DialFarm perform the one-time session setup (the
// hello, compilation, and the first batch's key generation); each RunBatch
// then proves and verifies one batch. All batches share the connections,
// the negotiated program, and the servers' cached compilation, so batches
// after the first skip compilation and negotiation entirely; the
// commitment key is redrawn per batch (reusing it across decommits would
// leak its secret vector). A Client is safe for sequential use; RunBatch
// calls are serialized.
type Client struct {
	f *farm.Farm
}

// dial dials every addr and opens one farm session over them for src —
// the one client path behind Dial and DialFarm.
func dial(ctx context.Context, addrs []string, src string, o options) (*Client, error) {
	// Build the backend offer, most preferred first. BackendAuto needs the
	// compiled program for the cost model, so it compiles here and hands
	// the program to the farm (which would otherwise compile the same
	// source again).
	var prog *Program
	offer := []string{o.cfg.Backend}
	switch o.cfg.Backend {
	case "":
		offer[0] = BackendZaatar
	case BackendAuto:
		var err error
		if prog, err = compiler.Compile(o.field, src); err != nil {
			return nil, err
		}
		if offer[0] = RecommendBackend(prog); offer[0] != BackendZaatar {
			offer = append(offer, BackendZaatar)
		}
	}

	hello := transport.Hello{
		Source:       src,
		Field220:     o.field == field.F220(),
		Backends:     offer,
		RhoLin:       o.cfg.Params.RhoLin,
		Rho:          o.cfg.Params.Rho,
		NoCommitment: o.cfg.NoCommitment,
	}
	var dialer net.Dialer
	var conns []net.Conn
	for _, a := range addrs {
		conn, err := dialer.DialContext(ctx, "tcp", a)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, fmt.Errorf("zaatar: dialing %s: %w", a, err)
		}
		conns = append(conns, conn)
	}
	f, err := farm.New(ctx, addrs, conns, hello, farm.Options{
		Seed:      o.cfg.Seed,
		Group:     o.cfg.Group,
		Program:   prog,
		Workers:   o.cfg.Workers,
		IOTimeout: o.ioTo,
		Obs:       o.cfg.Obs,
		Logger:    o.logger,
	})
	if err != nil {
		return nil, err
	}
	return &Client{f: f}, nil
}

// Dial connects to one prover server and opens a session for src: a farm
// of one worker, which gets each batch whole as one wire batch under one
// commitment key. The protocol parameters come from opts; WithField220
// must match how the embedded source expects to be compiled, and server
// and client compile the same source independently. Failures of the
// prover's connection are *FarmError values naming addr. To spread batches
// over several provers — the paper's distributed prover, §5.1 — use
// DialFarm; Dial refuses an address list.
func Dial(ctx context.Context, addr, src string, opts ...RunOption) (*Client, error) {
	addr = strings.TrimSpace(addr)
	switch {
	case addr == "":
		return nil, fmt.Errorf("zaatar: no prover address")
	case strings.Contains(addr, ","):
		return nil, fmt.Errorf("zaatar: Dial takes one prover address, got %q; use DialFarm to shard batches across several", addr)
	}
	return dial(ctx, []string{addr}, src, buildRunOptions(opts))
}

// RunBatch proves and verifies one batch of instances against the session's
// provers. Every batch carries its own commit request and query seed; the
// connections and the negotiated program carry over. An empty batch fails
// with an error wrapping transport.ErrBatchTooLarge, and a batch after
// Close with transport.ErrSessionClosed, on every client.
func (c *Client) RunBatch(ctx context.Context, batch [][]*big.Int) (*SessionResult, error) {
	return c.f.RunBatch(ctx, batch)
}

// Program returns the client-side compilation of the session's source (for
// io shape inspection).
func (c *Client) Program() *Program { return c.f.Program() }

// Backend reports the proof backend the session negotiated (every prover
// leg agrees on it — a distributed batch runs one encoding).
func (c *Client) Backend() string { return c.f.Backend() }

// SetupDuration reports the verifier setup cost paid at Dial (query
// construction plus the first batch's commitment-key generation) — the
// amortized cost that batching spreads over a batch's instances.
func (c *Client) SetupDuration() time.Duration { return c.f.SetupDuration() }

// Close ends the session once any batch in flight has returned (every
// live prover gets a clean goodbye frame) and closes every connection.
// Close is idempotent.
func (c *Client) Close() error { return c.f.Close() }
