package availd

import (
	"context"
	"errors"
	"testing"
	"time"
)

func waitState(t *testing.T, e *Engine, id string) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return j
}

func TestEngineLifecycle(t *testing.T) {
	e := NewEngine(2, 4)
	defer e.Close()

	j, err := e.Submit("ok", []byte(`{"x":1}`), func(ctx context.Context) ([]byte, error) {
		return []byte(`{"y":2}`), nil
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != JobQueued || j.ID == "" {
		t.Fatalf("fresh job = %+v", j)
	}
	done := waitState(t, e, j.ID)
	if done.State != JobDone || string(done.Result) != `{"y":2}` {
		t.Fatalf("done job = %+v", done)
	}

	f, err := e.Submit("fail", nil, func(ctx context.Context) ([]byte, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, e, f.ID)
	if failed.State != JobFailed || failed.Error != "boom" {
		t.Fatalf("failed job = %+v", failed)
	}

	if _, err := e.Get("job-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown: %v, want ErrNotFound", err)
	}
	if list := e.List(); len(list) != 2 || list[0].ID != j.ID {
		t.Fatalf("List = %+v", list)
	}
	st := e.Stats()
	if st.Submitted != 2 || st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestEngineCancelRunning(t *testing.T) {
	e := NewEngine(1, 4)
	defer e.Close()

	started := make(chan struct{})
	j, err := e.Submit("slow", nil, func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancelled, err := e.Cancel(j.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if cancelled.State != JobCancelled {
		t.Fatalf("after cancel = %+v", cancelled)
	}
	final := waitState(t, e, j.ID)
	if final.State != JobCancelled || final.Result != nil {
		t.Fatalf("final = %+v", final)
	}
	if got := e.Stats().Cancelled; got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
}

func TestEngineCancelQueued(t *testing.T) {
	e := NewEngine(1, 4)
	defer e.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := e.Submit("block", nil, func(ctx context.Context) ([]byte, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := e.Submit("victim", nil, func(ctx context.Context) ([]byte, error) {
		t.Error("cancelled queued job ran")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Cancel(queued.ID)
	if err != nil || c.State != JobCancelled {
		t.Fatalf("Cancel queued = %+v, %v", c, err)
	}
	close(release)
	// The worker must skip the cancelled job without running it; draining the
	// blocker proves the pipeline kept moving.
	final := waitState(t, e, queued.ID)
	if final.State != JobCancelled {
		t.Fatalf("final = %+v", final)
	}
}

func TestEngineShedsWhenFull(t *testing.T) {
	e := NewEngine(1, 1)
	defer e.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := func(ctx context.Context) ([]byte, error) {
		select {
		case <-started: // already closed by the first runner
		default:
			close(started)
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := e.Submit("b1", nil, blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	// Worker busy; this one occupies the single queue slot.
	if _, err := e.Submit("b2", nil, blocker); err != nil {
		t.Fatal(err)
	}
	// Queue full: shed, and neither listed nor counted as submitted.
	if _, err := e.Submit("b3", nil, blocker); !errors.Is(err, ErrBusy) {
		t.Fatalf("full queue Submit: %v, want ErrBusy", err)
	}
	if st := e.Stats(); st.Shed != 1 || st.Submitted != 2 || st.Queued != 1 {
		t.Fatalf("Stats = %+v, want 1 shed / 2 submitted / 1 queued", st)
	}
	if list := e.List(); len(list) != 2 || list[0].Kind != "b1" || list[1].Kind != "b2" {
		t.Fatalf("List = %+v, want b1 and b2 only", list)
	}
	if _, err := e.Get("job-3"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get shed job: %v, want ErrNotFound", err)
	}
	close(release)
}

func TestEngineCloseCancelsRunning(t *testing.T) {
	e := NewEngine(1, 1)
	started := make(chan struct{})
	j, err := e.Submit("hang", nil, func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	e.Close()
	got, err := e.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCancelled {
		t.Fatalf("state after Close = %s, want cancelled", got.State)
	}
}

// TestEngineCloseDrainsQueuedJobs is the regression test for the shutdown
// drain: a job still in the queue when Close runs must be failed over to
// cancelled and have its done channel closed, so a Wait on it returns
// immediately instead of hanging until the caller's context expires.
func TestEngineCloseDrainsQueuedJobs(t *testing.T) {
	// The exiting worker's select chooses randomly between shutdown and the
	// queue, so an undrained Close still empties the queue with probability
	// 2^-queued per attempt; eight queued jobs over two attempts make a
	// missing drain fail with overwhelming probability.
	for attempt := 0; attempt < 2; attempt++ {
		const queued = 8
		e := NewEngine(1, queued)
		started := make(chan struct{})
		if _, err := e.Submit("runner", nil, func(ctx context.Context) ([]byte, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}); err != nil {
			t.Fatal(err)
		}
		<-started
		// Worker busy: these sit in the queue and never reach a worker.
		idle := func(ctx context.Context) ([]byte, error) { return nil, nil }
		ids := make([]string, queued)
		for i := range ids {
			j, err := e.Submit("queued", nil, idle)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = j.ID
		}
		e.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for _, id := range ids {
			j, err := e.Wait(ctx, id)
			if err != nil {
				t.Fatalf("Wait(%s) after Close: %v (queued job abandoned by shutdown)", id, err)
			}
			if j.State != JobCancelled {
				t.Fatalf("queued job %s after Close: state %s, want cancelled", id, j.State)
			}
		}
		cancel()
		if got := e.Stats().Cancelled; got != queued+1 {
			t.Fatalf("Cancelled = %d, want %d (one running + %d queued)", got, queued+1, queued)
		}
		if got := e.Stats().Queued; got != 0 {
			t.Fatalf("Queued after Close = %d, want 0", got)
		}
	}
}
