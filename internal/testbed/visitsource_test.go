package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/dtmc"
	"repro/internal/hierarchy"
	"repro/internal/interaction"
	"repro/internal/opprofile"
	"repro/internal/telemetry"
	"repro/internal/travelagency"
)

// sourceDraws is how many values FuzzVisitSource compares per seed: past the
// 607-word lag, so draws that read sums written by earlier draws are covered.
const sourceDraws = 2500

// FuzzVisitSource checks visitSource against rand.NewSource at tolerance 0:
// one source, reseeded between the two seeds, must give every value a fresh
// stock source gives, through each rand.Rand method the testbed uses. ops
// picks the method of each draw.
func FuzzVisitSource(f *testing.F) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, math.MinInt64, math.MaxInt64, 89482311}
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)], []byte{0, 1, 2, 3, 4})
	}
	f.Add(int64(7), int64(7), []byte{})
	f.Add(int64(-89482311), int64(1<<40), []byte{4, 4, 2, 0, 3, 1, 1})
	f.Fuzz(func(t *testing.T, a, b int64, ops []byte) {
		src := newVisitSource(0)
		rng := rand.New(src)
		for _, seed := range []int64{a, b} {
			rng.Seed(seed)
			ref := rand.New(rand.NewSource(seed))
			for k := 0; k < sourceDraws; k++ {
				op := k % 5
				if len(ops) > 0 {
					op = int(ops[k%len(ops)]) % 5
				}
				var got, want any
				switch op {
				case 0:
					got, want = rng.Uint64(), ref.Uint64()
				case 1:
					got, want = rng.Int63(), ref.Int63()
				case 2:
					got, want = math.Float64bits(rng.Float64()), math.Float64bits(ref.Float64())
				case 3:
					got, want = math.Float64bits(rng.ExpFloat64()), math.Float64bits(ref.ExpFloat64())
				case 4:
					// Small, 31-bit and 63-bit bounds take different paths.
					n := []int{1 + k, 1<<31 - 1 - k, math.MaxInt - k}[k%3]
					got, want = rng.Intn(n), ref.Intn(n)
				}
				if got != want {
					t.Fatalf("seed %d, draw %d (op %d): got %v, want %v", seed, k, op, got, want)
				}
			}
		}
	})
}

// referenceLoad replays LoadGen's visit stream the plain way: one visit at a
// time, a fresh rand.NewSource per visit, and a walk that sorts each row's
// successor names and draws on them.
func referenceLoad(t *testing.T, c *Cluster, g LoadGen) []telemetry.VisitTrace {
	t.Helper()
	scenarios, err := travelagency.Scenarios(g.Class)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		weights[i] = sc.Probability
	}
	sampler, err := opprofile.NewSampler(weights)
	if err != nil {
		t.Fatal(err)
	}
	var out []telemetry.VisitTrace
	for i := int64(0); i < g.Visits; i++ {
		rng := rand.New(rand.NewSource(visitSeed(g.Seed, g.Offset+i)))
		sc := scenarios[sampler.Sample(rng)]
		tr, err := referenceRunVisit(c, uint64(g.Offset+i), sc, rng, g.KeepSteps)
		if err != nil {
			t.Fatal(err)
		}
		tr.Class = g.Class.String()
		out = append(out, tr)
	}
	return out
}

// referenceSteadyState is a steady-plane visit state kept as a map from
// resource name to up or down; names maps inventory indices to the names.
type referenceSteadyState struct {
	up    map[string]bool
	names []string
}

func (s *referenceSteadyState) Start() float64                    { return 0 }
func (s *referenceSteadyState) Up(resource int, _ float64) bool   { return s.up[s.names[resource]] }
func (s *referenceSteadyState) ExtraLatency(int, float64) float64 { return 0 }

// referenceSnapshot is SteadyStatePlane.Snapshot drawn into a name-keyed
// map: one draw per non-web resource in inventory order, then one farm
// draw whose first i web servers are up in operational state i.
func referenceSnapshot(p *SteadyStatePlane, rng *rand.Rand) VisitState {
	up := make(map[string]bool, len(p.resources))
	var names, web []string
	for _, r := range p.resources {
		names = append(names, r.Name)
		if r.Tier == TierWeb {
			web = append(web, r.Name)
			continue
		}
		up[r.Name] = rng.Float64() < r.Availability
	}
	operational := p.farm.Sample(rng)
	if operational > p.servers {
		operational = 0 // manual reconfiguration: the farm is down
	}
	for i, name := range web {
		up[name] = i < operational
	}
	return &referenceSteadyState{up: up, names: names}
}

// referenceRunVisit is RunVisit with referenceSnapshot in place of the
// steady plane's snapshot and referenceRunFunction in place of the compiled
// walk.
func referenceRunVisit(c *Cluster, id uint64, scenario hierarchy.UserScenario, rng *rand.Rand, keepSteps bool) (telemetry.VisitTrace, error) {
	t := c.acquire()
	defer c.release(t)
	var state VisitState
	if sp, ok := t.plane.(*SteadyStatePlane); ok {
		state = referenceSnapshot(sp, rng)
	} else {
		var err error
		if state, err = t.plane.Snapshot(rng); err != nil {
			return telemetry.VisitTrace{}, err
		}
	}
	if c.opts.Transport == HTTP {
		c.visitStates.Store(id, state)
		defer c.visitStates.Delete(id)
	}
	tr := telemetry.VisitTrace{ID: id, Scenario: scenario.Name, Start: state.Start(), OK: true}
	at := state.Start()
	for _, fn := range scenario.Functions {
		ftr, err := referenceRunFunction(c, t, id, fn, at, state, rng, keepSteps)
		if err != nil {
			return telemetry.VisitTrace{}, err
		}
		at += ftr.Duration
		tr.Duration += ftr.Duration
		tr.Functions = append(tr.Functions, ftr)
		if !ftr.OK && tr.OK {
			tr.OK = false
			tr.Cause = ftr.Cause
			tr.FailedService = ftr.FailedService
		}
	}
	return tr, nil
}

func referenceRunFunction(c *Cluster, t *topology, id uint64, fn string, at float64, state VisitState, rng *rand.Rand, keepSteps bool) (telemetry.FunctionTrace, error) {
	d := c.diagrams[fn]
	g := d.Graph()
	rows := make(map[string]map[string]float64, len(g.Names))
	for i, name := range g.Names {
		rows[name] = make(map[string]float64)
		for _, a := range g.Succ[i] {
			rows[name][g.Names[a.To]] = a.P
		}
	}
	ftr := telemetry.FunctionTrace{Function: fn, OK: true}
	node := interaction.Begin
	for {
		row := rows[node]
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		u := rng.Float64()
		next := keys[len(keys)-1]
		var acc float64
		for _, k := range keys {
			acc += row[k]
			if u < acc {
				next = k
				break
			}
		}
		if next == interaction.End {
			return ftr, nil
		}
		sp := planStep(d, next)
		st, err := c.runStep(t, id, fn, &sp, at+ftr.Duration, state, rng)
		if err != nil {
			return telemetry.FunctionTrace{}, err
		}
		ftr.Duration += st.Latency
		if keepSteps {
			ftr.Steps = append(ftr.Steps, st)
		}
		if !st.OK {
			ftr.OK = false
			ftr.Cause = st.Cause
			ftr.FailedService = st.FailedService
			return ftr, nil
		}
		node = next
	}
}

// TestLoadGenStreamMatchesReference pins LoadGen's visit stream, visit by
// visit, to referenceLoad's across classes, step retention, worker counts,
// transports and fault planes.
func TestLoadGenStreamMatchesReference(t *testing.T) {
	p := travelagency.DefaultParams()
	campaign, err := PresetCampaign(PresetCorrelated, p, 2000, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		opts   Options
		visits int64
	}{
		{"direct/steady", Options{}, 400},
		{"http/steady", Options{Transport: HTTP}, 60},
		{"direct/campaign", Options{Campaign: &campaign}, 150},
		{"http/campaign", Options{Transport: HTTP, Campaign: &campaign}, 40},
	} {
		c, err := New(p, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range []travelagency.UserClass{travelagency.ClassA, travelagency.ClassB} {
			for _, keepSteps := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s/%v/steps=%v/workers=%d", tc.name, class, keepSteps, workers)
					t.Run(name, func(t *testing.T) {
						g := LoadGen{Cluster: c, Class: class, Visits: tc.visits, Workers: workers,
							Seed: 11, Offset: 1 << 20, KeepSteps: keepSteps}
						var mu sync.Mutex
						var got []telemetry.VisitTrace
						col := telemetry.NewCollector(0)
						col.SetOnRecord(func(tr telemetry.VisitTrace) {
							mu.Lock()
							got = append(got, tr)
							mu.Unlock()
						})
						if err := g.Run(col); err != nil {
							t.Fatal(err)
						}
						sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
						want := referenceLoad(t, c, g)
						if !reflect.DeepEqual(got, want) {
							for i := range want {
								if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
									t.Fatalf("visit %d differs from the reference", i)
								}
							}
							t.Fatalf("%d visits, reference %d", len(got), len(want))
						}
					})
				}
			}
		}
		c.Close()
	}
}

// TestSampleArcUnscaled pins sampleArc's draw on a row that sums to just
// under 1, where scaling u by the row sum, as sim's walker does, would move
// the boundary between arcs and fall back to the last arc less often.
func TestSampleArcUnscaled(t *testing.T) {
	arcs := []dtmc.Arc{{To: 1, P: 0.3}, {To: 2, P: 0.7 - 1e-10}}
	for _, tc := range []struct {
		u    float64
		want int
	}{{0, 1}, {0.3 - 1e-11, 1}, {0.3 + 1e-11, 2}, {1 - 1e-11, 2}} {
		if got := sampleArc(arcs, tc.u); got != tc.want {
			t.Errorf("u = %v: arc to %d, want %d", tc.u, got, tc.want)
		}
	}
}
