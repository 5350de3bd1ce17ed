package availd

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/hierarchy"
	"repro/internal/modelspec"
	"repro/internal/sweep"
	"repro/internal/webfarm"
)

// EvalRequest asks for a point evaluation of a model: either a stored
// scenario (by name) or an inline spec, optionally perturbed by what-if
// service-availability overrides.
type EvalRequest struct {
	// Scenario names a stored parameterization; mutually exclusive with
	// Spec.
	Scenario string `json:"scenario,omitempty"`
	// Spec is an inline modelspec document.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Overrides replaces named services' availabilities before evaluating
	// (the what-if delta: the response carries the baseline and the delta).
	Overrides map[string]float64 `json:"overrides,omitempty"`
}

// ScenarioAvailability is one user-scenario line of an evaluation.
type ScenarioAvailability struct {
	Name         string  `json:"name"`
	Probability  float64 `json:"probability"`
	Availability float64 `json:"availability"`
}

// EvalResponse is the rendered evaluation: the paper's four levels plus,
// for what-if requests, the unmodified baseline and the delta.
type EvalResponse struct {
	Model              string                 `json:"model,omitempty"`
	Services           map[string]float64     `json:"services"`
	Functions          map[string]float64     `json:"functions"`
	Scenarios          []ScenarioAvailability `json:"scenarios"`
	UserAvailability   float64                `json:"userAvailability"`
	UserUnavailability float64                `json:"userUnavailability"`
	// BaselineUserAvailability and Delta are present when overrides were
	// applied: Delta = UserAvailability − baseline.
	BaselineUserAvailability *float64 `json:"baselineUserAvailability,omitempty"`
	Delta                    *float64 `json:"delta,omitempty"`
}

// Evaluator is the evaluation service. A spec document resolves, through
// two bounded caches, to a compiled model structure and an availability
// vector: the document cache maps a document's bytes to its resolution, and
// the structure cache maps a structure key (modelspec.Spec.StructureKey) to
// the model built and compiled once for every document that shares it. A
// point or what-if evaluation is then one EvaluateWith on that model, with
// the rendered body cached in a third, single-flight memo keyed by
// (structure, name, vector), so identical requests — concurrent or
// repeated — share one solve and one byte-identical body. Figure and table
// grids run on the deterministic sweep pool and share one webfarm.Composer
// across requests. All methods are safe for concurrent use.
type Evaluator struct {
	memo       sweep.Memo[string, rendered]   // response key → rendered body
	structures sweep.Memo[string, *structure] // structure key → compiled model
	documents  sweep.Memo[string, *document]  // spec document bytes → resolution
	lastID     atomic.Uint64
	composer   *webfarm.Composer
	workers    int
}

// NewEvaluator builds an evaluation service. workers bounds the sweep pool
// used by grid evaluations (≤ 0 selects GOMAXPROCS); memoLimit caps each of
// the response, structure and document caches (≤ 0 leaves them unbounded).
// A cached document keeps its structure's model alive after the structure
// cache drops it, so at most about 2·memoLimit models are resident.
func NewEvaluator(workers, memoLimit int) *Evaluator {
	e := &Evaluator{composer: webfarm.NewComposer(), workers: workers}
	e.memo.SetLimit(memoLimit)
	e.structures.SetLimit(memoLimit)
	e.documents.SetLimit(memoLimit)
	return e
}

// CacheStats are one cache's hit, miss and eviction counters and its
// current size.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Evicted int64 `json:"evicted"`
	Entries int   `json:"entries"`
}

func cacheStats[K comparable, V any](m *sweep.Memo[K, V]) CacheStats {
	hits, misses := m.Stats()
	return CacheStats{Hits: hits, Misses: misses, Evicted: m.Evicted(), Entries: m.Len()}
}

// MemoStats reports the response cache's hit/miss/eviction counters and
// current size.
func (e *Evaluator) MemoStats() (hits, misses, evicted int64, entries int) {
	st := cacheStats(&e.memo)
	return st.Hits, st.Misses, st.Evicted, st.Entries
}

// CacheStats reports the response, structure and document caches.
func (e *Evaluator) CacheStats() (memo, structures, documents CacheStats) {
	return cacheStats(&e.memo), cacheStats(&e.structures), cacheStats(&e.documents)
}

// Composer exposes the shared grid composer, for diagnostics.
func (e *Evaluator) Composer() *webfarm.Composer { return e.composer }

// renderReport converts a hierarchy report to the wire form and marshals it.
// encoding/json sorts map keys, so the bytes are deterministic.
func renderReport(name string, rep *hierarchy.Report) ([]byte, error) {
	resp := EvalResponse{
		Model:              name,
		Services:           rep.Services,
		Functions:          rep.Functions,
		Scenarios:          make([]ScenarioAvailability, 0, len(rep.Scenarios)),
		UserAvailability:   rep.UserAvailability,
		UserUnavailability: rep.UserUnavailability(),
	}
	for _, sc := range rep.Scenarios {
		resp.Scenarios = append(resp.Scenarios, ScenarioAvailability{
			Name:         sc.Name,
			Probability:  sc.Probability,
			Availability: sc.Availability,
		})
	}
	return json.Marshal(resp)
}

// structure is a model structure shared by every document with its
// structure key: the model built with every fixed service at 1 and
// compiled, and the service names in declaration order. id is never
// reused, so a structure rebuilt after an eviction cannot be served the
// responses of its predecessor. err records why the structure does not
// build; the services are known even then, for override checks.
type structure struct {
	id       uint64
	services []string
	model    *hierarchy.Model
	err      error
}

// document is a resolved spec document: its structure, its name and its
// availability vector (NaN for a group service). It holds no parsed spec
// and no model of its own, so a cached document costs one vector.
type document struct {
	st    *structure
	name  string
	avail []float64
	err   error // the document's own build error, when its structure fails
}

// rendered is one cached response body with its headline number, so
// what-if and sweep responses are assembled without decoding a body.
type rendered struct {
	body []byte
	user float64
}

// documentFor resolves a spec document, inline or stored, through the
// document cache.
func (e *Evaluator) documentFor(raw []byte) (*document, error) {
	return e.documents.Do(string(raw), func() (*document, error) {
		spec, err := modelspec.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		return e.resolve(spec)
	})
}

// resolve splits a parsed spec into its cached structure, its name and its
// availability vector.
func (e *Evaluator) resolve(spec *modelspec.Spec) (*document, error) {
	key, avail, err := spec.StructureKey()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	st, _ := e.structures.Do(key, func() (*structure, error) { return e.compile(spec), nil })
	doc := &document{st: st, name: spec.Name, avail: avail}
	if st.err != nil {
		// The spec fails as its structure does, unless an invalid fixed
		// availability declared earlier fails it first.
		m, err := spec.Build()
		if err == nil {
			_, err = m.Evaluate()
		}
		if err == nil {
			err = st.err
		}
		doc.err = fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return doc, nil
}

// compile builds spec's structure and compiles its user layer with one
// evaluation, so a structure that cannot be evaluated fails here.
func (e *Evaluator) compile(spec *modelspec.Spec) *structure {
	st := &structure{id: e.lastID.Add(1), services: make([]string, len(spec.Services))}
	for i, svc := range spec.Services {
		st.services[i] = svc.Name
	}
	m, err := spec.BuildStructure()
	if err == nil {
		_, err = m.Evaluate()
	}
	if err != nil {
		st.err = err
		return st
	}
	st.model = m
	return st
}

// override returns the document's availability vector with the overrides
// applied, checking them in name order: an unknown service or a value
// outside [0, 1] is ErrInvalid.
func (d *document) override(overrides map[string]float64) ([]float64, error) {
	names := make([]string, 0, len(overrides))
	for name := range overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	avail := slices.Clone(d.avail)
	for _, name := range names {
		a := overrides[name]
		if !(a >= 0 && a <= 1) {
			return nil, fmt.Errorf("%w: override %q availability %v outside [0,1]", ErrInvalid, name, a)
		}
		i := slices.Index(d.st.services, name)
		if i < 0 {
			return nil, fmt.Errorf("%w: override names unknown service %q", ErrInvalid, name)
		}
		avail[i] = a
	}
	return avail, nil
}

// responseKey identifies the response of a document at an availability
// vector: the structure id, the vector's bits and the name.
func responseKey(d *document, avail []float64) string {
	b := make([]byte, 0, len("eval:")+8*(1+len(avail))+len(d.name))
	b = append(b, "eval:"...)
	b = binary.LittleEndian.AppendUint64(b, d.st.id)
	for _, a := range avail {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a))
	}
	return string(append(b, d.name...))
}

// render returns the memoized response of the document at avail.
func (e *Evaluator) render(d *document, avail []float64) (rendered, error) {
	if d.err != nil {
		return rendered{}, d.err
	}
	return e.memo.Do(responseKey(d, avail), func() (rendered, error) {
		overrides := make(map[string]float64, len(avail))
		for i, a := range avail {
			switch {
			case math.IsNaN(a): // a group service, evaluated from its replicas
			case a < 0 || a > 1:
				// What Build reports for the same spec.
				return rendered{}, fmt.Errorf("%w: %w: service %q availability %v",
					ErrInvalid, hierarchy.ErrModel, d.st.services[i], a)
			default:
				overrides[d.st.services[i]] = a
			}
		}
		rep, err := d.st.model.EvaluateWith(overrides)
		if err != nil {
			return rendered{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		body, err := renderReport(d.name, rep)
		return rendered{body: body, user: rep.UserAvailability}, err
	})
}

// Evaluate runs a point evaluation of spec. With overrides it evaluates
// both the modified and the baseline availabilities (each memoized
// independently) and annotates the response with the baseline and the
// delta.
func (e *Evaluator) Evaluate(spec *modelspec.Spec, overrides map[string]float64) ([]byte, error) {
	d, err := e.resolve(spec)
	if err != nil {
		return nil, err
	}
	return e.evaluate(d, overrides)
}

// evaluate is Evaluate on a resolved document.
func (e *Evaluator) evaluate(d *document, overrides map[string]float64) ([]byte, error) {
	if len(overrides) == 0 {
		r, err := e.render(d, d.avail)
		return r.body, err
	}
	avail, err := d.override(overrides)
	if err != nil {
		return nil, err
	}
	mod, err := e.render(d, avail)
	if err != nil {
		return nil, err
	}
	base, err := e.render(d, d.avail)
	if err != nil {
		return nil, err
	}
	tail, err := json.Marshal(struct {
		Baseline float64 `json:"baselineUserAvailability"`
		Delta    float64 `json:"delta"`
	}{base.user, mod.user - base.user})
	if err != nil {
		return nil, err
	}
	// EvalResponse renders the baseline and the delta last: splice them in
	// before the modified body's closing brace.
	body := make([]byte, 0, len(mod.body)+len(tail))
	body = append(body, mod.body[:len(mod.body)-1]...)
	body = append(body, ',')
	return append(body, tail[1:]...), nil
}

// SweepRequest asks for a sensitivity sweep: one service's availability is
// varied over [From, To] in Points equidistant steps and the user-perceived
// availability re-evaluated at each point.
type SweepRequest struct {
	Scenario string          `json:"scenario,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	// Service names the swept service.
	Service string  `json:"service"`
	From    float64 `json:"from"`
	To      float64 `json:"to"`
	Points  int     `json:"points"`
}

// maxSweepPoints bounds one job's grid.
const maxSweepPoints = 10000

// validate checks the grid parameters against the document.
func (r SweepRequest) validate(d *document) error {
	if r.Points < 2 || r.Points > maxSweepPoints {
		return fmt.Errorf("%w: sweep points %d outside [2, %d]", ErrInvalid, r.Points, maxSweepPoints)
	}
	if r.From < 0 || r.From > 1 || r.To < 0 || r.To > 1 || r.From > r.To {
		return fmt.Errorf("%w: sweep range [%v, %v] outside 0 ≤ from ≤ to ≤ 1", ErrInvalid, r.From, r.To)
	}
	if !slices.Contains(d.st.services, r.Service) {
		return fmt.Errorf("%w: sweep names unknown service %q", ErrInvalid, r.Service)
	}
	return nil
}

// SweepPoint is one cell of a sweep result.
type SweepPoint struct {
	ServiceAvailability float64 `json:"serviceAvailability"`
	UserAvailability    float64 `json:"userAvailability"`
}

// SweepResponse is a completed sweep.
type SweepResponse struct {
	Model   string       `json:"model,omitempty"`
	Service string       `json:"service"`
	Points  []SweepPoint `json:"points"`
}

// runSweep evaluates a validated sensitivity grid on the shared sweep pool.
// Every point flows through the same cross-request memo as point
// evaluations, so sweeps warm the cache for later what-if queries (and
// vice versa). ctx aborts the sweep between points.
func (e *Evaluator) runSweep(ctx context.Context, d *document, req SweepRequest) ([]byte, error) {
	i := slices.Index(d.st.services, req.Service)
	values := make([]float64, req.Points)
	for k := range values {
		values[k] = req.From + (req.To-req.From)*float64(k)/float64(req.Points-1)
	}
	points, err := sweep.Run(values, func(v float64) (SweepPoint, error) {
		if err := ctx.Err(); err != nil {
			return SweepPoint{}, err
		}
		avail := slices.Clone(d.avail)
		avail[i] = v
		mod, err := e.render(d, avail)
		if err != nil {
			return SweepPoint{}, err
		}
		// Each point is a what-if, so an invalid baseline fails it.
		if _, err := e.render(d, d.avail); err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{ServiceAvailability: v, UserAvailability: mod.user}, nil
	}, sweep.Options{Workers: e.workers})
	if err != nil {
		return nil, err
	}
	return json.Marshal(SweepResponse{Model: d.name, Service: req.Service, Points: points})
}
