// Command availd serves the repository's availability models as a
// long-running HTTP/JSON API: scenario CRUD over a persistent store,
// memoized point and what-if evaluation, async sensitivity-sweep jobs with
// bounded-queue load shedding, and the paper's Figure 11/12 and Table 8
// grids — with /metrics, /traces and /healthz on the same listener.
//
// Usage:
//
//	availd                              # serve on 127.0.0.1:9470
//	availd -addr :9470 -store s.json    # persist scenarios across restarts
//	availd -workers 8 -queue 32         # bigger sweep pool and job queue
//
// Endpoints (all under /api/v1):
//
//	GET|POST /scenarios          list, create (201; 409 exists; 422 invalid)
//	GET|PUT|DELETE /scenarios/N  read, update (optimistic version; 409 stale), delete
//	POST /evaluate               point + what-if evaluation (cached, single-flight)
//	POST /sweep                  submit async sweep job (202; 429 when queue full)
//	GET /sweep, /sweep/ID        list jobs, poll status/result
//	DELETE /sweep/ID             cancel (context cancellation)
//	GET /figures/11, /figures/12 web-service unavailability grids
//	GET /tables/8                user availability vs reservation systems
//	GET /stats                   memo, composer-cache and job-engine counters
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/availd"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "availd:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("availd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9470", "listen address (host:port, :0 for ephemeral)")
	store := fs.String("store", "", "scenario snapshot file (loaded on start, rewritten on every mutation)")
	workers := fs.Int("workers", 0, "sweep pool size for grid evaluations (0 = GOMAXPROCS)")
	jobWorkers := fs.Int("job-workers", 2, "async job workers")
	queue := fs.Int("queue", 16, "async job queue capacity (full queue sheds with 429)")
	memoLimit := fs.Int("memo-limit", 4096, "evaluation cache entry cap (-1 = unbounded)")
	traceCap := fs.Int("trace-cap", 512, "request spans retained for /traces")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(*traceCap)
	api, err := availd.New(availd.Options{
		Registry:      reg,
		Tracer:        tracer,
		Workers:       *workers,
		JobWorkers:    *jobWorkers,
		QueueCapacity: *queue,
		MemoLimit:     *memoLimit,
		SnapshotPath:  *store,
	})
	if err != nil {
		return err
	}
	defer api.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(api, reg, tracer)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(w, "availd: serving on http://%s (scenarios: %d)\n", ln.Addr(), api.Store().Len())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(w, "availd: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// newHTTPServer mounts the API and the observability plane on one mux,
// behind the obs connection limits.
func newHTTPServer(api *availd.Server, reg *obs.Registry, tracer *obs.Tracer) *http.Server {
	mux := http.NewServeMux()
	api.Register(mux)
	obs.NewServer(reg, tracer).Register(mux)
	return obs.NewHTTPServer(mux)
}
