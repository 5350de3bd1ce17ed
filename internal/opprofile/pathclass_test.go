package opprofile

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dtmc"
)

// cyclicProfile is the Figure 2 graph with arbitrary cyclic probabilities,
// its transitions added in an order shuffled by rng.
func cyclicProfile(t *testing.T, rng *rand.Rand) *Profile {
	t.Helper()
	arcs := []struct {
		from, to string
		p        float64
	}{
		{Start, "Home", 0.75}, {Start, "Browse", 0.25},
		{"Home", "Browse", 0.45}, {"Home", "Search", 0.21}, {"Home", Exit, 0.34},
		{"Browse", "Home", 0.38}, {"Browse", "Search", 0.22}, {"Browse", Exit, 0.4},
		{"Search", "Book", 0.46}, {"Search", Exit, 0.54},
		{"Book", "Search", 0.25}, {"Book", "Pay", 0.54}, {"Book", Exit, 0.21},
		{"Pay", Exit, 1},
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	p := New()
	for _, a := range arcs {
		mustAdd(t, p, a.from, a.to, a.p)
	}
	return p
}

// Fresh builds of one cyclic profile, with transitions added in any order,
// give bit-identical scenario probabilities.
func TestScenariosBitIdenticalAcrossBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fingerprint := func(p *Profile) string {
		scs, err := p.Scenarios()
		if err != nil {
			t.Fatalf("Scenarios: %v", err)
		}
		var s string
		for _, sc := range scs {
			s += fmt.Sprintf("%s=%#x ", sc.Key(), math.Float64bits(sc.Probability))
		}
		return s
	}
	want := fingerprint(cyclicProfile(t, rng))
	for i := 0; i < 200; i++ {
		if got := fingerprint(cyclicProfile(t, rng)); got != want {
			t.Fatalf("build %d: scenarios %s, want %s", i, got, want)
		}
	}
}

// A profile whose expansion exceeds dtmc.MaxPathStates is rejected as an
// invalid profile.
func TestScenariosStateBudget(t *testing.T) {
	const n = 9 // every function reaches every other: 9·2⁸ states
	p := New()
	for i := 0; i < n; i++ {
		fn := fmt.Sprintf("F%d", i)
		mustAdd(t, p, Start, fn, 1.0/n)
		for j := 0; j < n; j++ {
			mustAdd(t, p, fn, fmt.Sprintf("F%d", j), 1.0/(n+1))
		}
		mustAdd(t, p, fn, Exit, 1.0/(n+1))
	}
	_, err := p.Scenarios()
	if !errors.Is(err, ErrProfile) || !errors.Is(err, dtmc.ErrStateBudget) {
		t.Fatalf("error %v, want ErrProfile wrapping dtmc.ErrStateBudget", err)
	}
}
