// Package availd turns the repository's one-shot availability evaluators
// into a long-running availability-as-a-service HTTP/JSON API: the paper's
// user-perceived availability becomes something an operator can query — per
// scenario, per user class, per architecture — instead of something they
// re-run a CLI for.
//
// The package layers handler → service → store:
//
//   - Store is a concurrency-safe scenario repository persisting named
//     modelspec parameterizations with optimistic versioning and a JSON-file
//     snapshot.
//   - Evaluator wraps modelspec evaluation, the webfarm.Composer and the
//     travelagency figure/table grids behind one memoized service. A spec
//     document resolves once, through a document cache, to a compiled model
//     structure shared through a structure cache and an availability
//     vector; a what-if only evaluates that model at a patched vector. A
//     cross-request sweep.Memo caches the rendered response bodies per
//     (structure, name, vector), so concurrent identical what-if requests
//     coalesce via its single-flight semantics and repeated requests are
//     served from cache, bit-identical.
//   - Engine runs sensitivity sweeps asynchronously: POST returns a job id,
//     workers evaluate on the deterministic sweep pool, GET polls status and
//     results, DELETE cancels via context, and a bounded queue sheds load
//     with 429 — the paper's M/M/i/K admission story applied to the service
//     itself.
//   - Server wires the three behind /api/v1 endpoints instrumented with
//     internal/obs (request counters, latency histograms, spans), and
//     registers on a caller-supplied mux so /metrics, /traces and /healthz
//     ride the same listener.
package availd

import "errors"

var (
	// ErrNotFound is returned for unknown scenarios, jobs, figures or tables
	// (HTTP 404).
	ErrNotFound = errors.New("availd: not found")
	// ErrExists is returned when creating a scenario whose name is taken
	// (HTTP 409).
	ErrExists = errors.New("availd: scenario already exists")
	// ErrVersion is returned when an update or delete carries a stale
	// version (HTTP 409).
	ErrVersion = errors.New("availd: version conflict")
	// ErrInvalid is returned for semantically invalid requests — bad specs,
	// unknown override services, out-of-range sweep grids (HTTP 422).
	ErrInvalid = errors.New("availd: invalid request")
	// ErrBusy is returned when the job queue is full (HTTP 429).
	ErrBusy = errors.New("availd: job queue full")
)
