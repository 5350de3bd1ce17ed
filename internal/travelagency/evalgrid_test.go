package travelagency

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestEvaluateManyMatchesSerial locks the batch path to the serial one: the
// Table 8 parameter sets evaluated with many workers must reproduce the
// serial user availabilities bit for bit.
func TestEvaluateManyMatchesSerial(t *testing.T) {
	var ps []Params
	for _, n := range []int{1, 2, 3, 4, 5, 10} {
		p := DefaultParams()
		p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
		ps = append(ps, p)
	}
	for _, class := range []UserClass{ClassA, ClassB} {
		want := make([]float64, len(ps))
		for i, p := range ps {
			rep, err := Evaluate(p, class)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = rep.UserAvailability
		}
		for _, workers := range []int{1, 4} {
			reps, err := EvaluateMany(ps, class, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if len(reps) != len(ps) {
				t.Fatalf("workers=%d: %d reports, want %d", workers, len(reps), len(ps))
			}
			for i, rep := range reps {
				if rep.UserAvailability != want[i] {
					t.Fatalf("class %v workers=%d: report %d availability %v, want %v",
						class, workers, i, rep.UserAvailability, want[i])
				}
			}
		}
	}
}

// TestEvaluateManyConcurrentBatchesByteIdentical runs several EvaluateMany
// batches concurrently (each batch itself parallel, exercising the shared
// composer and per-worker workspaces under -race) and requires every report —
// not just the headline availability — to marshal to the same bytes as the
// serial reference evaluation.
func TestEvaluateManyConcurrentBatchesByteIdentical(t *testing.T) {
	var ps []Params
	for _, n := range []int{1, 2, 4, 6, 8, 10} {
		p := DefaultParams()
		p.WebServers = n
		ps = append(ps, p)
	}
	want := make([][]byte, len(ps))
	for i, p := range ps {
		rep, err := Evaluate(p, ClassA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps, err := EvaluateMany(ps, ClassA, 4)
			if err != nil {
				t.Error(err)
				return
			}
			for i, rep := range reps {
				b, err := json.Marshal(rep)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b, want[i]) {
					t.Errorf("report %d: batch bytes differ from serial\nbatch:  %s\nserial: %s", i, b, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvaluateManyError propagates validation failures.
func TestEvaluateManyError(t *testing.T) {
	bad := DefaultParams()
	bad.WebServers = -1
	if _, err := EvaluateMany([]Params{DefaultParams(), bad}, ClassA, 2); err == nil {
		t.Fatal("invalid parameter set accepted")
	}
}

// mixedBrowseBatch interleaves two Browse branch-probability tuples (two
// diagram keys) across cells that also vary the service-level inputs, so
// each worker reuses a model per key and refreshes it per cell.
func mixedBrowseBatch() []Params {
	var ps []Params
	for i := 0; i < 12; i++ {
		p := DefaultParams()
		if i%3 == 1 {
			p.Q23, p.Q24, p.Q45, p.Q47 = 0.35, 0.65, 0.25, 0.75
		}
		n := 1 + i%5
		p.FlightSystems, p.HotelSystems, p.CarSystems = n, n, n
		p.WebServers = 1 + i%4
		p.ArrivalRate = 60 + 10*float64(i)
		ps = append(ps, p)
	}
	return ps
}

// TestEvaluateManyReuseBitIdentical: a batch mixing two diagram keys must
// reproduce serial Evaluate cell by cell, bit for bit in every report
// field, with one and two workers.
func TestEvaluateManyReuseBitIdentical(t *testing.T) {
	ps := mixedBrowseBatch()
	for _, class := range []UserClass{ClassA, ClassB} {
		want := make([][]byte, len(ps))
		for i, p := range ps {
			rep, err := Evaluate(p, class)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2} {
			reps, err := EvaluateMany(ps, class, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i, rep := range reps {
				got, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("class %v workers=%d cell %d: batch differs from serial\nbatch:  %s\nserial: %s", class, workers, i, got, want[i])
				}
			}
		}
	}
}

// TestEvaluateManyInvalidCellInReusedBatch: an invalid cell after cells
// that already built and refreshed a model must fail with serial Evaluate's
// error, both when its parameters are invalid and when its diagrams are.
func TestEvaluateManyInvalidCellInReusedBatch(t *testing.T) {
	badParams := DefaultParams()
	badParams.NetAvailability = 1.5
	badDiagram := DefaultParams()
	badDiagram.Q23, badDiagram.Q24 = 0, 1 // valid Params, but a zero-probability arc
	for name, bad := range map[string]Params{"params": badParams, "diagram": badDiagram} {
		_, want := Evaluate(bad, ClassA)
		if want == nil {
			t.Fatalf("%s: serial Evaluate accepted the invalid cell", name)
		}
		ps := mixedBrowseBatch()
		at := len(ps) / 2
		ps[at] = bad
		for _, workers := range []int{1, 2} {
			_, err := EvaluateMany(ps, ClassA, workers)
			if wantMsg := fmt.Sprintf("sweep: point %d: %v", at, want); err == nil || err.Error() != wantMsg {
				t.Errorf("%s workers=%d: error %v, want %q", name, workers, err, wantMsg)
			}
		}
	}
}

// TestDiagramKeyCoversDiagramInputs perturbs every Params field: whenever
// the perturbation leaves diagramKeyOf unchanged, Diagrams must yield
// identical scenarios, so a model reused across equal keys never serves a
// stale structure. A field the diagrams start to read must join the key.
func TestDiagramKeyCoversDiagramInputs(t *testing.T) {
	base := DefaultParams()
	ref, err := Diagrams(base)
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		p := base
		f := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float()/2 + 0.1)
		default:
			t.Fatalf("field %s: unhandled kind %v", v.Type().Field(i).Name, f.Kind())
		}
		name := v.Type().Field(i).Name
		if diagramKeyOf(p) != diagramKeyOf(base) {
			continue
		}
		got, err := Diagrams(p)
		if err != nil {
			t.Fatalf("field %s leaves the diagram key unchanged but breaks Diagrams: %v", name, err)
		}
		for fn, d := range ref {
			want, err := d.Scenarios()
			if err != nil {
				t.Fatal(err)
			}
			have, err := got[fn].Scenarios()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(have, want) {
				t.Errorf("field %s changes %s's scenarios but not the diagram key", name, fn)
			}
		}
	}
}

// TestEvaluateCacheMatchesFreshBuild sweeps the Browse branch
// probabilities over more diagram keys than the process-wide model cache
// holds, twice, so later cells evaluate models rebuilt after evictions.
// Serial Evaluate must match a fresh Build and Evaluate bit for bit in
// every report field.
func TestEvaluateCacheMatchesFreshBuild(t *testing.T) {
	evicted := models.Evicted()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i <= modelCacheLimit; i++ {
			p := DefaultParams()
			p.Q23 = 0.2 + 0.6*float64(i)/modelCacheLimit
			p.Q24 = 1 - p.Q23
			p.WebServers = 1 + i%4
			for _, class := range []UserClass{ClassA, ClassB} {
				m, err := Build(p, class)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := m.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				cached, err := Evaluate(p, class)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(fresh)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(cached)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("pass %d cell %d class %v: cached model differs from a fresh build\ncached: %s\nfresh:  %s", pass, i, class, got, want)
				}
			}
		}
	}
	if models.Evicted() == evicted {
		t.Fatal("the sweep did not evict the model cache")
	}
	if n := models.Len(); n > modelCacheLimit {
		t.Fatalf("model cache holds %d entries, limit %d", n, modelCacheLimit)
	}
}
