package vc

import (
	"context"
	"errors"
	"math/big"
	"sync/atomic"
	"testing"

	"zaatar/internal/obs"
	"zaatar/internal/pcp"
)

// Cancelling at the barrier — every commitment in, the seed not yet out —
// aborts the batch with ctx.Err() before the decommit is built: an
// abandoned batch never reveals its query seed.
func TestRunBatchCancelMidBatch(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, true)
	cfg.Workers = 2
	const beta = 16
	batch := make([][]*big.Int, beta)
	for i := range batch {
		batch[i] = inputsFor(int64(i), 1, 2, 3)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var decommits atomic.Int32
	testHookAfterCommit = func(int, *Commitment) { cancel() }
	testHookPreDecommit = func() { decommits.Add(1) }
	defer func() { testHookAfterCommit, testHookPreDecommit = nil, nil }()

	_, err := RunBatch(ctx, prog, cfg, batch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := decommits.Load(); n != 0 {
		t.Fatalf("cancelled batch crossed the barrier %d times", n)
	}
}

func TestRunBatchPreCancelled(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBatch(ctx, prog, cfg, [][]*big.Int{inputsFor(1, 2, 3, 4)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Drive's respond→verify overlap must make the same decisions at any
// worker count — including rejections, injected here by tampering with
// some commitments.
func TestPipelineMatchesSerial(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, false)
	const beta = 8
	batch := make([][]*big.Int, beta)
	for i := range batch {
		batch[i] = inputsFor(int64(i), int64(-i), 3, 1)
	}
	tampered := map[int]bool{1: true, 5: true}
	testHookAfterCommit = func(i int, cm *Commitment) {
		if tampered[i] {
			cm.Output[0].Add(cm.Output[0], big.NewInt(1))
		}
	}
	defer func() { testHookAfterCommit = nil }()

	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := RunBatch(context.Background(), prog, serialCfg, batch)
	if err != nil {
		t.Fatal(err)
	}
	pipeCfg := cfg
	pipeCfg.Workers = 4
	pipe, err := RunBatch(context.Background(), prog, pipeCfg, batch)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < beta; i++ {
		if serial.Accepted[i] != pipe.Accepted[i] || serial.Reasons[i] != pipe.Reasons[i] {
			t.Errorf("instance %d: 1 worker (%v, %q) != 4 workers (%v, %q)",
				i, serial.Accepted[i], serial.Reasons[i], pipe.Accepted[i], pipe.Reasons[i])
		}
		if serial.Accepted[i] == tampered[i] {
			t.Errorf("instance %d: accepted = %v, want %v", i, serial.Accepted[i], !tampered[i])
		}
		for j := range serial.Outputs[i] {
			if serial.Outputs[i][j].Cmp(pipe.Outputs[i][j]) != 0 {
				t.Errorf("instance %d output %d: 1 worker %v != 4 workers %v",
					i, j, serial.Outputs[i][j], pipe.Outputs[i][j])
			}
		}
	}
}

// RunBatch must record its counters and phases into the configured
// registry.
func TestRunBatchObservability(t *testing.T) {
	prog, cfg := testSetup(t, pcp.BackendZaatar, true)
	cfg.Workers = 2
	cfg.Obs = obs.NewRegistry()
	tampered := map[int]bool{0: true}
	testHookAfterCommit = func(i int, cm *Commitment) {
		if tampered[i] {
			cm.Output[0].Add(cm.Output[0], big.NewInt(1))
		}
	}
	defer func() { testHookAfterCommit = nil }()

	batch := [][]*big.Int{inputsFor(1, 2, 3, 4), inputsFor(5, 6, 7, 8), inputsFor(0, 0, 0, 1)}
	if _, err := RunBatch(context.Background(), prog, cfg, batch); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Obs.CounterVec(MetricBatches, LabelBackend).Total(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricBatches, got)
	}
	if got := cfg.Obs.Counter(MetricInstances).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", MetricInstances, got)
	}
	if got := cfg.Obs.Counter(MetricRejected).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRejected, got)
	}
	phases := cfg.Obs.HistogramVec(MetricPhase, LabelPhase, LabelBackend)
	if s := phases.With("verify", pcp.BackendZaatar).Snapshot(); s.Count != 3 {
		t.Errorf("%s{verify}.count = %d, want 3", MetricPhase, s.Count)
	}
	for _, name := range []string{"setup", "commit", "decommit", "respond", "batch"} {
		if s := phases.With(name, pcp.BackendZaatar).Snapshot(); s.Count != 1 {
			t.Errorf("%s{%s}.count = %d, want 1", MetricPhase, name, s.Count)
		}
	}
}
