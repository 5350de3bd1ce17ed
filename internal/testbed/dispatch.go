package testbed

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Request and response headers of the tier protocol. Service calls carry
// their model-level context in headers so tier handlers stay stateless.
const (
	headerVisit   = "X-TB-Visit"   // visit ID (decimal)
	headerService = "X-TB-Service" // model service name (e.g. "WS")
	headerAt      = "X-TB-At"      // model instant of the call
	headerDemand  = "X-TB-Demand"  // sampled service demand, model seconds
	headerEntry   = "X-TB-Entry"   // "1" marks the user-facing page request
	headerLossU   = "X-TB-LossU"   // admission-model uniform draw for entry calls
	headerLatency = "X-TB-Latency" // response: call latency, model seconds
)

// call is one service invocation within a visit.
type call struct {
	visit uint64
	// service indexes the topology's groups (serviceOrder); -1 marks a
	// service the deployment does not implement.
	service int
	at      float64
	demand  float64
	entry   bool
	// lossU is the visit rng's uniform draw deciding analytic admission for
	// entry calls when the topology runs with an offered load (see
	// Options.OfferedLoad); negative when no draw was made.
	lossU float64
}

// callResult is the outcome of one service invocation.
type callResult struct {
	ok      bool
	cause   telemetry.Cause
	latency float64
}

// callTier executes one service call against the live deployment: check the
// fault plane for a structurally up replica in every bank, push the
// user-facing web request through the bounded admission queue (or through the
// analytic admission model on an unpaced cluster with an offered load), and
// pace the service demand in real time when the cluster runs scaled. It is
// the single source of truth for call semantics; the HTTP transport is a
// transparent wrapper around it.
func (c *Cluster) callTier(t *topology, cl call, state VisitState) (callResult, error) {
	if m := c.metrics; m != nil {
		m.calls.Inc()
	}
	if cl.service < 0 {
		return c.failCall(telemetry.CauseResourceDown), nil
	}
	g := &t.groups[cl.service]
	var extra float64
	operational := 0
	for _, bank := range g.banks {
		serving := -1
		for _, r := range bank {
			if state.Up(r, cl.at) {
				if serving < 0 {
					serving = r
				}
				if g.tier != TierWeb {
					break
				}
				operational++ // web bank: count capacity for the admission model
			}
		}
		if serving < 0 {
			return c.failCall(telemetry.CauseResourceDown), nil
		}
		// Injected latency is observed on the replica actually serving the
		// call; it is accounted in model time, not slept.
		if e := state.ExtraLatency(serving, cl.at); e > extra {
			extra = e
		}
	}
	if cl.entry && g.tier == TierWeb {
		if t.offered > 0 && c.opts.Scale <= 0 {
			// Analytic admission: reject with the M/M/i/K loss probability at
			// the offered load for the visit's operational server count —
			// the unpaced counterpart of a genuinely overflowing buffer.
			pk, err := c.entryLoss(t, operational)
			if err != nil {
				return callResult{}, err
			}
			if cl.lossU >= 0 && cl.lossU < pk {
				c.rejected.Add(1)
				return c.failCall(telemetry.CauseBufferOverflow), nil
			}
			c.admitted.Add(1)
			return callResult{ok: true, latency: cl.demand + extra}, nil
		}
		start := time.Now()
		if err := t.web.serve(cl.demand); err != nil {
			return c.failCall(telemetry.CauseBufferOverflow), nil
		}
		lat := cl.demand + extra
		if c.opts.Scale > 0 {
			// Paced: the measured latency includes real queueing delay,
			// mapped back to model seconds.
			lat = time.Since(start).Seconds()/c.opts.Scale + extra
		}
		return callResult{ok: true, latency: lat}, nil
	}
	sleepModel(cl.demand, c.opts.Scale)
	return callResult{ok: true, latency: cl.demand + extra}, nil
}

// failCall builds a failed call result and counts it when metered.
func (c *Cluster) failCall(cause telemetry.Cause) callResult {
	if m := c.metrics; m != nil {
		switch cause {
		case telemetry.CauseBufferOverflow:
			m.callOverflow.Inc()
		default:
			m.callDown.Inc()
		}
	}
	return callResult{ok: false, cause: cause}
}

// dispatcher routes a call to the component that owns the service. The
// topology is the one pinned by the calling visit, so direct dispatch is
// immune to concurrent reconfiguration.
type dispatcher interface {
	dispatch(t *topology, cl call, state VisitState) (callResult, error)
	close()
}

// directDispatcher invokes callTier in-process — the fast path for large
// closed-loop validation runs.
type directDispatcher struct{ c *Cluster }

func (d *directDispatcher) dispatch(t *topology, cl call, state VisitState) (callResult, error) {
	return d.c.callTier(t, cl, state)
}

func (d *directDispatcher) close() {}

// httpDispatcher sends every call over loopback HTTP to one httptest server
// per tier, exercising real listeners, connection reuse and header routing.
type httpDispatcher struct {
	c       *Cluster
	servers map[string]*httptest.Server
	client  *http.Client
}

func newHTTPDispatcher(c *Cluster) *httpDispatcher {
	d := &httpDispatcher{
		c:       c,
		servers: make(map[string]*httptest.Server, len(Tiers())),
	}
	for _, tier := range Tiers() {
		d.servers[tier] = httptest.NewServer(c.tierHandler(tier))
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	d.client = &http.Client{Transport: transport}
	return d
}

func (d *httpDispatcher) dispatch(t *topology, cl call, state VisitState) (callResult, error) {
	if cl.service < 0 {
		return callResult{ok: false, cause: telemetry.CauseResourceDown}, nil
	}
	g := &t.groups[cl.service]
	srv, ok := d.servers[g.tier]
	if !ok {
		return callResult{}, fmt.Errorf("testbed: no server for tier %q", g.tier)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/call", nil)
	if err != nil {
		return callResult{}, err
	}
	req.Header.Set(headerVisit, strconv.FormatUint(cl.visit, 10))
	req.Header.Set(headerService, g.service)
	req.Header.Set(headerAt, strconv.FormatFloat(cl.at, 'g', -1, 64))
	req.Header.Set(headerDemand, strconv.FormatFloat(cl.demand, 'g', -1, 64))
	if cl.entry {
		req.Header.Set(headerEntry, "1")
		req.Header.Set(headerLossU, strconv.FormatFloat(cl.lossU, 'g', -1, 64))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return callResult{}, fmt.Errorf("testbed: tier %s: %w", g.tier, err)
	}
	resp.Body.Close()
	res := callResult{}
	res.latency, _ = strconv.ParseFloat(resp.Header.Get(headerLatency), 64)
	switch resp.StatusCode {
	case http.StatusOK:
		res.ok = true
	case http.StatusTooManyRequests:
		res.cause = telemetry.CauseBufferOverflow
	case http.StatusServiceUnavailable:
		res.cause = telemetry.CauseResourceDown
	default:
		return callResult{}, fmt.Errorf("testbed: tier %s: unexpected status %d", g.tier, resp.StatusCode)
	}
	return res, nil
}

func (d *httpDispatcher) close() {
	for _, srv := range d.servers {
		srv.Close()
	}
	d.client.CloseIdleConnections()
}

// tierHandler serves one tier's component endpoint. The handler resolves the
// visit's frozen fault-plane state from the cluster registry, verifies the
// requested service is actually hosted by this tier, and maps the call
// outcome onto HTTP status codes: 200 success, 429 admission-buffer
// overflow, 503 resources down. Unlike the direct path — which pins one
// topology per visit — the stateless handler resolves the topology per call,
// so a visit in flight across a reconfiguration may see the swap mid-walk;
// its frozen fault-plane state stays valid either way.
func (c *Cluster) tierHandler(tier string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := r.Header.Get(headerService)
		svc := serviceIndex(name)
		t := c.acquire()
		defer c.release(t)
		if svc < 0 || t.groups[svc].tier != tier {
			http.Error(w, fmt.Sprintf("service %q not hosted by tier %q", name, tier), http.StatusNotFound)
			return
		}
		visit, err := strconv.ParseUint(r.Header.Get(headerVisit), 10, 64)
		if err != nil {
			http.Error(w, "bad visit id", http.StatusBadRequest)
			return
		}
		stateVal, ok := c.visitStates.Load(visit)
		if !ok {
			http.Error(w, "unknown visit", http.StatusBadRequest)
			return
		}
		at, err := strconv.ParseFloat(r.Header.Get(headerAt), 64)
		if err != nil {
			http.Error(w, "bad instant", http.StatusBadRequest)
			return
		}
		demand, err := strconv.ParseFloat(r.Header.Get(headerDemand), 64)
		if err != nil {
			http.Error(w, "bad demand", http.StatusBadRequest)
			return
		}
		cl := call{
			visit:   visit,
			service: svc,
			at:      at,
			demand:  demand,
			entry:   r.Header.Get(headerEntry) == "1",
			lossU:   -1,
		}
		if cl.entry {
			if u, err := strconv.ParseFloat(r.Header.Get(headerLossU), 64); err == nil {
				cl.lossU = u
			}
		}
		res, err := c.callTier(t, cl, stateVal.(VisitState))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(headerLatency, strconv.FormatFloat(res.latency, 'g', -1, 64))
		switch {
		case res.ok:
			w.WriteHeader(http.StatusOK)
		case res.cause == telemetry.CauseBufferOverflow:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
}
