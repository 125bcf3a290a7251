package vc_test

import (
	"context"
	"math/big"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"zaatar"
	"zaatar/internal/obs"
	"zaatar/internal/vc"
)

// The tests here drive one batch over each ProverLink — in process
// (zaatar.Run), one wire connection (zaatar.Dial) and a two-worker farm
// (zaatar.DialFarm) — and check that Drive behaves the same on all three.

const linkSrc = `
input x : int32;
output y : int32;
output sq : int64;
y = x - 3;
sq = x * x;
`

func linkBatch(n int) [][]*big.Int {
	batch := make([][]*big.Int, n)
	for i := range batch {
		batch[i] = []*big.Int{big.NewInt(int64(i + 2))}
	}
	return batch
}

// tamperOutputs returns a barrier hook that bumps the claimed y of every
// instance whose honest y is in bad. It keys on the output, not the index,
// so a farm shard — which sees only its slice of the batch — tampers with
// the same instances as a whole-batch link.
func tamperOutputs(bad map[int64]bool) func(int, *vc.Commitment) {
	return func(_ int, cm *vc.Commitment) {
		if bad[cm.Output[0].Int64()] {
			cm.Output[0] = new(big.Int).Add(cm.Output[0], big.NewInt(100))
		}
	}
}

// startProver serves a prover (zaatar.Serve or zaatar.ServeWorker) on a
// loopback listener until the test ends.
func startProver(t *testing.T, serve func(context.Context, net.Listener, ...zaatar.ServerOption) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, zaatar.WithServerWorkers(2), zaatar.WithServerMetrics(obs.NewRegistry()))
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// linkRun is one link's verdict and the client-side registry it recorded
// into.
type linkRun struct {
	name string
	res  *vc.Verdict
	reg  *obs.Registry
}

// runLinks proves batch once over each link with the same options.
func runLinks(t *testing.T, batch [][]*big.Int, opts ...zaatar.RunOption) []linkRun {
	t.Helper()
	ctx := context.Background()
	prog, err := zaatar.Compile(linkSrc)
	if err != nil {
		t.Fatal(err)
	}
	withReg := func(reg *obs.Registry) []zaatar.RunOption {
		return append(slices.Clip(opts), zaatar.WithMetrics(reg))
	}
	viaClient := func(dial func([]zaatar.RunOption) (*zaatar.Client, error), reg *obs.Registry) *vc.Verdict {
		client, err := dial(withReg(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		res, err := client.RunBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var runs []linkRun
	reg := obs.NewRegistry()
	local, err := zaatar.Run(prog, batch, withReg(reg)...)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, linkRun{"local", &local.Verdict, reg})

	addr := startProver(t, zaatar.Serve)
	reg = obs.NewRegistry()
	runs = append(runs, linkRun{"wire", viaClient(func(o []zaatar.RunOption) (*zaatar.Client, error) {
		return zaatar.Dial(ctx, addr, linkSrc, o...)
	}, reg), reg})

	workers := []string{startProver(t, zaatar.ServeWorker), startProver(t, zaatar.ServeWorker)}
	reg = obs.NewRegistry()
	runs = append(runs, linkRun{"farm", viaClient(func(o []zaatar.RunOption) (*zaatar.Client, error) {
		return zaatar.DialFarm(ctx, workers, linkSrc, o...)
	}, reg), reg})
	return runs
}

// With a fixed seed and the same tamper set, every link reaches the same
// verdicts: same acceptances, same rejection reasons, same outputs.
func TestLinkEquivalence(t *testing.T) {
	bad := map[int64]bool{0: true, 4: true}
	defer vc.SetTestHooks(tamperOutputs(bad), nil)()
	batch := linkBatch(8)
	runs := runLinks(t, batch, zaatar.WithParams(2, 2), zaatar.WithSeed([]byte("links")), zaatar.WithWorkers(2))

	want := runs[0].res
	for i, in := range batch {
		if y := in[0].Int64() - 3; want.Accepted[i] == bad[y] {
			t.Fatalf("local instance %d (y=%d): accepted = %v (%q)", i, y, want.Accepted[i], want.Reasons[i])
		}
	}
	for _, run := range runs[1:] {
		got := run.res
		for i := range batch {
			if got.Accepted[i] != want.Accepted[i] || got.Reasons[i] != want.Reasons[i] {
				t.Errorf("%s instance %d: (%v, %q), local (%v, %q)",
					run.name, i, got.Accepted[i], got.Reasons[i], want.Accepted[i], want.Reasons[i])
			}
			if !slices.EqualFunc(got.Outputs[i], want.Outputs[i], func(a, b *big.Int) bool { return a.Cmp(b) == 0 }) {
				t.Errorf("%s instance %d outputs %v, local %v", run.name, i, got.Outputs[i], want.Outputs[i])
			}
		}
	}
}

// Drive counts batches, instances and rejections on every link, into the
// verifier's registry — the client's, on the wire. A farm counts each
// shard as one batch.
func TestRejectionsCountedOnEveryLink(t *testing.T) {
	bad := map[int64]bool{1: true, 2: true, 5: true}
	defer vc.SetTestHooks(tamperOutputs(bad), nil)()
	batch := linkBatch(8)
	runs := runLinks(t, batch, zaatar.WithParams(2, 2), zaatar.WithoutCommitment())

	wantBatches := map[string]int64{"local": 1, "wire": 1, "farm": 2}
	for _, run := range runs {
		if got := run.reg.Counter(vc.MetricRejected).Value(); got != int64(len(bad)) {
			t.Errorf("%s: %s = %d, want %d", run.name, vc.MetricRejected, got, len(bad))
		}
		if got := run.reg.Counter(vc.MetricInstances).Value(); got != int64(len(batch)) {
			t.Errorf("%s: %s = %d, want %d", run.name, vc.MetricInstances, got, len(batch))
		}
		if got := run.reg.CounterVec(vc.MetricBatches, vc.LabelBackend).Total(); got != wantBatches[run.name] {
			t.Errorf("%s: %s = %d, want %d", run.name, vc.MetricBatches, got, wantBatches[run.name])
		}
	}
}

// linkRunner proves one batch over one link.
type linkRunner struct {
	name string
	run  func(batch [][]*big.Int) (*vc.Verdict, error)
}

// localAndWire returns runners for the in-process link (zaatar.Run) and one
// wire connection (zaatar.Dial), both with opts.
func localAndWire(t *testing.T, opts ...zaatar.RunOption) []linkRunner {
	t.Helper()
	prog, err := zaatar.Compile(linkSrc)
	if err != nil {
		t.Fatal(err)
	}
	addr := startProver(t, zaatar.Serve)
	return []linkRunner{
		{"local", func(batch [][]*big.Int) (*vc.Verdict, error) {
			res, err := zaatar.Run(prog, batch, opts...)
			if err != nil {
				return nil, err
			}
			return &res.Verdict, nil
		}},
		{"wire", func(batch [][]*big.Int) (*vc.Verdict, error) {
			client, err := zaatar.Dial(context.Background(), addr, linkSrc, opts...)
			if err != nil {
				return nil, err
			}
			defer client.Close()
			return client.RunBatch(context.Background(), batch)
		}},
	}
}

// The soundness barrier: the decommit (query seed reveal) runs only after
// every instance's commitment is in, in process and over the wire alike.
func TestDecommitBarrierAfterAllCommitments(t *testing.T) {
	const beta = 8
	batch := linkBatch(beta)
	for _, link := range localAndWire(t, zaatar.WithParams(2, 2), zaatar.WithWorkers(4)) {
		t.Run(link.name, func(t *testing.T) {
			var committed, barrierChecks atomic.Int32
			defer vc.SetTestHooks(
				func(int, *vc.Commitment) { committed.Add(1) },
				func() {
					barrierChecks.Add(1)
					if c := committed.Load(); int(c) != beta {
						t.Errorf("decommit reached with %d of %d commitments", c, beta)
					}
				})()
			res, err := link.run(batch)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllAccepted() {
				t.Fatalf("honest batch rejected: %v", res.Reasons)
			}
			if barrierChecks.Load() != 1 {
				t.Fatalf("decommit barrier crossed %d times, want 1", barrierChecks.Load())
			}
		})
	}
}

// A commitment with a component missing — what a gob CommitmentsMsg that
// omits the field decodes to — rejects its instance with that oracle's
// consistency reason, on either oracle, in process and over the wire; it
// must not crash the verifier or touch the other instance.
func TestNilCommitmentComponentRejected(t *testing.T) {
	links := localAndWire(t, zaatar.WithParams(2, 2), zaatar.WithSeed([]byte("nil-commitment")))
	for _, c := range []struct {
		name, oracle string
		tamper       func(*vc.Commitment)
	}{
		{"C1.A", "oracle 1", func(cm *vc.Commitment) { cm.C1.A = nil }},
		{"C1.B", "oracle 1", func(cm *vc.Commitment) { cm.C1.B = nil }},
		{"C2.A", "oracle 2", func(cm *vc.Commitment) { cm.C2.A = nil }},
		{"C2.B", "oracle 2", func(cm *vc.Commitment) { cm.C2.B = nil }},
	} {
		for _, link := range links {
			t.Run(c.name+"/"+link.name, func(t *testing.T) {
				defer vc.SetTestHooks(func(i int, cm *vc.Commitment) {
					if i == 0 {
						c.tamper(cm)
					}
				}, nil)()
				res, err := link.run(linkBatch(2))
				if err != nil {
					t.Fatal(err)
				}
				want := "commitment consistency test failed for " + c.oracle
				if res.Accepted[0] || res.Reasons[0] != want {
					t.Errorf("tampered instance: (%v, %q), want rejection %q", res.Accepted[0], res.Reasons[0], want)
				}
				if !res.Accepted[1] {
					t.Errorf("untouched instance rejected: %q", res.Reasons[1])
				}
			})
		}
	}
}
