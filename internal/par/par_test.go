package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 33} {
		n := 100
		var hits [100]int32
		err := ForEach(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(int) error {
		t.Error("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), 64, workers, func(i int) error {
			if i == 13 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: got %v, want sentinel", workers, err)
		}
	}
}

func TestForEachErrorStopsFeeding(t *testing.T) {
	var ran int32
	_ = ForEach(context.Background(), 10000, 2, func(i int) error {
		atomic.AddInt32(&ran, 1)
		return errors.New("stop")
	})
	if n := atomic.LoadInt32(&ran); n >= 10000 {
		t.Errorf("all %d items ran despite an early error", n)
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran int32
		err := ForEach(ctx, 50, workers, func(int) error {
			atomic.AddInt32(&ran, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if atomic.LoadInt32(&ran) == 50 {
			t.Errorf("workers=%d: cancelled run completed every item", workers)
		}
	}
}

// Regression test for the old parallelFor, which kept dispatching every
// remaining index after the first error: the pool must stop feeding and
// drain promptly.
func TestForEachStopsAfterFirstError(t *testing.T) {
	const n, workers = 100, 4
	boom := errors.New("boom")
	var calls atomic.Int32
	err := ForEach(context.Background(), n, workers, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c := calls.Load(); int(c) > n/2 {
		t.Fatalf("pool ran %d of %d indices after the first error; feeder did not stop", c, n)
	}
}

func TestForEachSerialStopsAfterFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls int
	err := ForEach(context.Background(), 10, 1, func(i int) error {
		calls++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("serial pool: err = %v, calls = %d (want boom after 4 calls)", err, calls)
	}
}

func TestForEachContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 50, 2, func(i int) error {
			if calls.Add(1) == 1 {
				close(started)
				<-release
			}
			return nil
		})
	}()
	<-started
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool did not drain after cancellation")
	}
	if c := calls.Load(); c > 10 {
		t.Fatalf("pool ran %d indices after cancellation", c)
	}
}

func TestForEachCompletesAll(t *testing.T) {
	var calls atomic.Int32
	seen := make([]atomic.Bool, 64)
	if err := ForEach(context.Background(), 64, 8, func(i int) error {
		calls.Add(1)
		seen[i].Store(true)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 64 {
		t.Fatalf("ran %d of 64 indices", calls.Load())
	}
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("index %d never ran", i)
		}
	}
}
