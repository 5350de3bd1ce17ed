package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.MustCounter("demo_total", "a demo counter").Add(7)
	tracer := NewTracer(4)
	tracer.Record(spanTrace(9, "visit"))
	srv := NewServer(reg, tracer)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	code, body, ctype := get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	_ = ctype

	code, body, ctype = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		"demo_total 7",
		"# TYPE obs_uptime_seconds gauge",
		"obs_traces_recorded_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, ctype = get(t, base+"/traces")
	if code != http.StatusOK || !strings.Contains(body, `"level":"visit"`) {
		t.Errorf("/traces = %d %q", code, body)
	}
	if ctype != "application/x-ndjson" {
		t.Errorf("/traces content type %q", ctype)
	}

	code, body, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start succeeded")
	}
}

func TestServerShutdownFlushesTraces(t *testing.T) {
	tracer := NewTracer(8)
	for i := uint64(1); i <= 3; i++ {
		tracer.Record(spanTrace(i, "visit"))
	}
	srv := NewServer(NewRegistry(), tracer)
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	srv.SetFlushPath(path)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flushed file: %v", err)
	}
	defer f.Close()
	var ids []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("flushed line %q: %v", sc.Text(), err)
		}
		ids = append(ids, sp.Trace)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("flushed trace ids = %v, want [1 2 3] oldest first", ids)
	}

	// The flush happens at most once: a later Close must not rewrite the file.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Shutdown: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("Close re-flushed after Shutdown (stat err %v)", err)
	}
}

func TestServerShutdownWithoutStart(t *testing.T) {
	// A run interrupted before the listener opens still persists its spans.
	tracer := NewTracer(2)
	tracer.Record(spanTrace(7, "visit"))
	srv := NewServer(NewRegistry(), tracer)
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	srv.SetFlushPath(path)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown without Start: %v", err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"trace":7`) {
		t.Errorf("flushed body %q missing trace 7", body)
	}

	// No flush path or tracer: Shutdown is a silent no-op.
	if err := NewServer(NewRegistry(), nil).Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown of bare server: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(NewRegistry(), nil)
	if err := srv.Close(); err != nil {
		t.Errorf("Close before Start: %v", err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestRegisterSharedMux pins the Register contract: the observability
// endpoints mount on a caller-supplied mux next to the caller's own routes,
// while a separately started obs server keeps serving the same registry.
func TestRegisterSharedMux(t *testing.T) {
	reg := NewRegistry()
	reg.MustCounter("shared_total", "a shared counter").Add(3)
	tracer := NewTracer(4)
	tracer.Record(spanTrace(1, "visit"))
	srv := NewServer(reg, tracer)

	mux := http.NewServeMux()
	mux.HandleFunc("/api/ping", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	})
	srv.Register(mux)
	app := httptest.NewServer(mux)
	defer app.Close()

	code, body, _ := get(t, app.URL+"/api/ping")
	if code != http.StatusOK || body != "pong" {
		t.Errorf("/api/ping = %d %q", code, body)
	}
	code, body, _ = get(t, app.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "shared_total 3") {
		t.Errorf("shared-mux /metrics = %d %q", code, body)
	}
	code, body, _ = get(t, app.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("shared-mux /healthz = %d %q", code, body)
	}
	code, body, _ = get(t, app.URL+"/traces")
	if code != http.StatusOK || !strings.Contains(body, `"level":"visit"`) {
		t.Errorf("shared-mux /traces = %d %q", code, body)
	}

	// A standalone obs server over the same registry still serves too.
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body, _ = get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "shared_total 3") {
		t.Errorf("standalone /metrics = %d %q", code, body)
	}
}

// TestServerTimeouts: a started server carries every connection limit, and
// the limits are positive with the write limit above pprof's default 30 s
// CPU profile.
func TestServerTimeouts(t *testing.T) {
	s := NewServer(NewRegistry(), nil)
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.ReadTimeout != ReadTimeout ||
		srv.WriteTimeout != WriteTimeout || srv.IdleTimeout != IdleTimeout {
		t.Errorf("timeouts = %v/%v/%v/%v, want %v/%v/%v/%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout,
			ReadHeaderTimeout, ReadTimeout, WriteTimeout, IdleTimeout)
	}
	if ReadHeaderTimeout <= 0 || ReadTimeout < ReadHeaderTimeout || IdleTimeout <= 0 || WriteTimeout <= 30*time.Second {
		t.Errorf("limits out of range: %v/%v/%v/%v", ReadHeaderTimeout, ReadTimeout, WriteTimeout, IdleTimeout)
	}
}
