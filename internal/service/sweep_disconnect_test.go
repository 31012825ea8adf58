package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"buffy/internal/qm"
)

// sessionRefs counts the pool's outstanding acquires: 0 means no sweep
// currently holds a pooled session.
func sessionRefs(e *Engine) int {
	e.sessions.mu.Lock()
	defer e.sessions.mu.Unlock()
	return e.sessions.holds
}

// TestSweepClientDisconnect cancels a /v1/sweep HTTP request mid-stream
// and asserts the cancellation propagates all the way down: the solve
// stops (the job goes canceled, not done), the pooled session's
// reference is released rather than leaked, and the engine keeps
// serving.
func TestSweepClientDisconnect(t *testing.T) {
	e := New(Config{Workers: 1})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// A sweep long enough that the stream is alive well after the first
	// verdict (~2.5s total on one worker), so the cancel point is
	// unambiguously mid-solve.
	body, _ := json.Marshal(&Request{
		Kind: KindSweep, Source: qm.FQFixedQuerySrc,
		Params: map[string]int64{"N": 6}, MaxT: 20, SweepMode: "verify",
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Read exactly one streamed verdict — proof the solve is running and
	// the session is held — then hang up.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatalf("stream ended before the first verdict: %v", sc.Err())
	}
	var line sweepLine
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Verdict == nil {
		t.Fatalf("first line %q is not a verdict (err %v)", sc.Bytes(), err)
	}
	if refs := sessionRefs(e); refs != 1 {
		t.Fatalf("session refs mid-sweep = %d, want 1", refs)
	}
	cancel()

	// The handler observes the dead request context and cancels the job;
	// the worker's solver unwinds cooperatively.
	e.mu.Lock()
	if len(e.jobs) != 1 {
		e.mu.Unlock()
		t.Fatalf("expected exactly one job, have %d", len(e.jobs))
	}
	var job *Job
	for _, j := range e.jobs {
		job = j
	}
	e.mu.Unlock()
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job still %s 30s after client disconnect: cancellation not propagated", job.State())
	}
	if st := job.State(); st != StateCanceled {
		t.Fatalf("job state = %s, want canceled", st)
	}

	// The session reference must be released promptly, not leaked until
	// pool eviction.
	deadline := time.Now().Add(5 * time.Second)
	for sessionRefs(e) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session refs = %d 5s after cancellation: session leaked", sessionRefs(e))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m := e.Metrics(); m.JobsCanceled != 1 {
		t.Fatalf("JobsCanceled = %d, want 1", m.JobsCanceled)
	}

	// And the engine still serves: the same sweep, uncanceled, completes.
	j2, err := e.Submit(sweepReq("witness", 4))
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, j2, 2*time.Minute)
	if res.Status == "" {
		t.Fatal("follow-up sweep produced no status")
	}
}
