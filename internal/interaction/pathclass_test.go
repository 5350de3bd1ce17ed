package interaction

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dtmc"
)

type arc struct {
	from, to string
	q        float64
}

// cyclicDiagram builds a five-step diagram with retry loops and a shared
// service, declaring its steps and transitions in an order shuffled by rng.
func cyclicDiagram(t *testing.T, rng *rand.Rand) *Diagram {
	t.Helper()
	steps := [][]string{
		{"recv", "WS"}, {"auth", "AS"}, {"query", "DS"}, {"retry", "AS", "DS"}, {"render", "WS"},
	}
	arcs := []arc{
		{Begin, "recv", 1},
		{"recv", "auth", 0.7}, {"recv", "query", 0.3},
		{"auth", "query", 0.55}, {"auth", "recv", 0.15}, {"auth", End, 0.3},
		{"query", "retry", 0.35}, {"query", "render", 0.45}, {"query", "auth", 0.2},
		{"retry", "query", 0.6}, {"retry", "recv", 0.1}, {"retry", End, 0.3},
		{"render", End, 0.8}, {"render", "recv", 0.2},
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	d := New("cyclic")
	for _, s := range steps {
		mustStep(t, d, s[0], s[1:]...)
	}
	for _, a := range arcs {
		mustTrans(t, d, a.from, a.to, a.q)
	}
	return d
}

// Fresh builds of one cyclic diagram, declared in any order, give
// bit-identical scenario probabilities.
func TestScenariosBitIdenticalAcrossBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fingerprint := func(d *Diagram) string {
		scs, err := d.Scenarios()
		if err != nil {
			t.Fatalf("Scenarios: %v", err)
		}
		var s string
		for _, sc := range scs {
			s += fmt.Sprintf("%s=%#x ", sc.Key(), math.Float64bits(sc.Probability))
		}
		return s
	}
	want := fingerprint(cyclicDiagram(t, rng))
	for i := 0; i < 200; i++ {
		if got := fingerprint(cyclicDiagram(t, rng)); got != want {
			t.Fatalf("build %d: scenarios %s, want %s", i, got, want)
		}
	}
}

// allToAll builds a diagram of n steps, each requiring its own service, with
// an edge between every pair of steps and from every step to End.
func allToAll(t *testing.T, n int) *Diagram {
	t.Helper()
	d := New("all-to-all")
	for i := 0; i < n; i++ {
		mustStep(t, d, fmt.Sprintf("s%d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < n; i++ {
		mustTrans(t, d, Begin, fmt.Sprintf("s%d", i), 1/float64(n))
		for j := 0; j < n; j++ {
			mustTrans(t, d, fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", j), 1/float64(n+1))
		}
		mustTrans(t, d, fmt.Sprintf("s%d", i), End, 1/float64(n+1))
	}
	return d
}

// An expansion beyond dtmc.MaxPathStates is rejected before it is solved;
// one just under it is solved.
func TestScenariosStateBudget(t *testing.T) {
	if _, err := allToAll(t, 6).Scenarios(); err != nil {
		t.Fatalf("six services (256 states): %v", err)
	}
	start := time.Now()
	_, err := allToAll(t, 8).Scenarios()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDiagram) || !errors.Is(err, dtmc.ErrStateBudget) {
		t.Fatalf("eight services: error %v, want ErrDiagram wrapping dtmc.ErrStateBudget", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("eight services rejected after %v", elapsed)
	}
}
