package availd

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/modelspec"
	"repro/internal/obs"
	"repro/internal/tracemine"
)

// DriftRequest asks the service to mine a batch of spans — observed traffic
// shipped by the caller — and diff the discovered model against a stored
// scenario (or an inline spec): the service-side twin of `tracemine -diff`.
type DriftRequest struct {
	// Scenario names a stored spec; Spec inlines one. Exactly one is
	// required.
	Scenario string          `json:"scenario,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	// Spans is the observed traffic to mine.
	Spans []obs.Span `json:"spans"`
	// Z and MinSamples tune the drift bands (defaults 3 and 50); Clusters
	// tunes session clustering for class-less spans (default 2).
	Z          float64 `json:"z,omitempty"`
	MinSamples int64   `json:"min_samples,omitempty"`
	Clusters   int     `json:"clusters,omitempty"`
}

// DriftResponse is the drift-route payload: the verdict, the full judged
// report and a summary of the mined traffic.
type DriftResponse struct {
	Verdict string              `json:"verdict"`
	Visits  int64               `json:"visits"`
	Read    tracemine.ReadStats `json:"read"`
	Report  *tracemine.Report   `json:"report"`
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	var req DriftRequest
	if !decodeBody(w, r, maxDriftBodyBytes, &req) {
		return
	}
	if len(req.Spans) == 0 {
		writeError(w, fmt.Errorf("%w: no spans to mine", ErrInvalid))
		return
	}
	raw, err := s.specDocument(req.Scenario, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	spec, err := modelspec.Parse(raw)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalid, err))
		return
	}
	traces, rs := tracemine.GroupSpans(req.Spans)
	d := tracemine.Mine(traces, tracemine.Options{Clusters: req.Clusters})
	d.Read = rs
	rep, err := tracemine.Diff(d, map[string]*modelspec.Spec{"": spec},
		tracemine.DiffOptions{Z: req.Z, MinSamples: req.MinSamples})
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrInvalid, err))
		return
	}
	writeJSON(w, http.StatusOK, DriftResponse{
		Verdict: rep.Verdict,
		Visits:  d.Visits,
		Read:    rs,
		Report:  rep,
	})
}
