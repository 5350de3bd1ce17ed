package interaction

import (
	"math"
	"reflect"
	"testing"
)

func TestSteps(t *testing.T) {
	d := New("Browse")
	if err := d.AddStep("render", "WS"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddStep("query", "WS", "DS"); err != nil {
		t.Fatal(err)
	}
	got := d.Steps()
	if !reflect.DeepEqual(got, []string{"render", "query"}) {
		t.Fatalf("Steps = %v, want declaration order", got)
	}
	got[0] = "mutated" // callers get a copy
	if d.Steps()[0] != "render" {
		t.Error("Steps leaked internal state")
	}
}

func TestFromObservations(t *testing.T) {
	// Mined counts: all 50 walks render, 30 go on to query, both step sets
	// carry their observed services.
	d, err := FromObservations("Browse",
		map[string][]string{
			"render": {"WS"},
			"query":  {"DS", "WS"},
		},
		map[string]map[string]float64{
			Begin:    {"render": 50},
			"render": {"query": 30, End: 20},
			"query":  {End: 30},
		})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	succ := map[string]float64{}
	for i, name := range g.Names {
		if name == "render" {
			for _, a := range g.Succ[i] {
				succ[g.Names[a.To]] = a.P
			}
		}
	}
	if math.Abs(succ["query"]-0.6) > 1e-12 || math.Abs(succ[End]-0.4) > 1e-12 {
		t.Errorf("render successors = %v, want 0.6/0.4", succ)
	}
	svcs, ok := d.StepServices("query")
	if !ok || !reflect.DeepEqual(svcs, []string{"DS", "WS"}) {
		t.Errorf("query services = %v (ok=%v)", svcs, ok)
	}
}

func TestFromObservationsErrors(t *testing.T) {
	steps := map[string][]string{"render": {"WS"}}
	if _, err := FromObservations("Browse", steps, map[string]map[string]float64{
		Begin:    {"render": 10},
		"render": {End: -1},
	}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := FromObservations("Browse", steps, map[string]map[string]float64{
		Begin: {"render": 10}, // render is a dead end
	}); err == nil {
		t.Error("dangling step accepted")
	}
}
