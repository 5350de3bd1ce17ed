package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/availd"
	"repro/internal/obs"
)

// syncBuffer lets the test poll output written by the server goroutine.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestRunValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"bad flag": {"-bogus"},
		"bad addr": {"-addr", "not an address"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}
}

func TestSelfTest(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-selftest", "-selftest-requests", "64"}, &sb); err != nil {
		t.Fatalf("selftest: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"availd selftest ok", "64 concurrent requests bit-identical to serial",
		"429 shedding exercised", "0 responses 5xx",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("selftest output missing %q:\n%s", want, out)
		}
	}
}

// TestServeAndShutdown boots the real server on an ephemeral port, drives a
// round trip through the API, and exercises the signal-driven shutdown path.
func TestServeAndShutdown(t *testing.T) {
	buf := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}, buf) }()

	addrRE := regexp.MustCompile(`serving on (http://[0-9.:]+)`)
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if m := addrRE.FindStringSubmatch(buf.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", buf.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	body := fmt.Sprintf(`{"spec":%s}`, quickSpec)
	resp, err = http.Post(base+"/api/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d", resp.StatusCode)
	}
	var eval struct {
		UserAvailability float64 `json:"userAvailability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eval); err != nil {
		t.Fatal(err)
	}
	if eval.UserAvailability <= 0 || eval.UserAvailability > 1 {
		t.Fatalf("user availability = %v", eval.UserAvailability)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
	if !strings.Contains(buf.String(), "shutting down") {
		t.Fatalf("missing shutdown notice:\n%s", buf.String())
	}
}

const quickSpec = `{
  "services": [
    {"name": "WS", "availability": 0.999},
    {"name": "DB", "group": {"count": 2, "availability": 0.99, "required": 1}}
  ],
  "functions": [{
    "name": "Browse",
    "steps": [{"name": "q", "services": ["WS", "DB"]}],
    "transitions": [{"from": "Begin", "to": "q"}, {"from": "q", "to": "End"}]
  }],
  "scenarios": [{"name": "visit", "functions": ["Browse"], "probability": 1}]
}`

// TestHTTPServerTimeouts: the served mux carries every obs connection limit.
func TestHTTPServerTimeouts(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	api, err := availd.New(availd.Options{Registry: reg, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	srv := newHTTPServer(api, reg, tracer)
	if srv.ReadHeaderTimeout != obs.ReadHeaderTimeout || srv.ReadTimeout != obs.ReadTimeout ||
		srv.WriteTimeout != obs.WriteTimeout || srv.IdleTimeout != obs.IdleTimeout {
		t.Errorf("timeouts = %v/%v/%v/%v, want %v/%v/%v/%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout,
			obs.ReadHeaderTimeout, obs.ReadTimeout, obs.WriteTimeout, obs.IdleTimeout)
	}
	if srv.Handler == nil {
		t.Error("no handler")
	}
}
