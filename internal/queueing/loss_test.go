package queueing

import (
	"math"
	"testing"
)

// TestLossProbabilityMatchesDistribution pins the allocation-free loss path
// to the birth–death reference: p_K must equal StateDistribution()[K] bit for
// bit across the paper's parameter ranges.
func TestLossProbabilityMatchesDistribution(t *testing.T) {
	for _, arrival := range []float64{1, 50, 100, 150, 1e4} {
		for _, service := range []float64{10, 100, 3600} {
			for servers := 1; servers <= 10; servers++ {
				for _, capacity := range []int{servers, 10, 40} {
					if capacity < servers {
						continue
					}
					q := MMcK{Arrival: arrival, Service: service, Servers: servers, Capacity: capacity}
					dist, err := q.StateDistribution()
					if err != nil {
						t.Fatalf("StateDistribution(%+v): %v", q, err)
					}
					got, err := q.LossProbability()
					if err != nil {
						t.Fatalf("LossProbability(%+v): %v", q, err)
					}
					if got != dist[capacity] {
						t.Errorf("%+v: LossProbability %v != dist[K] %v (expected bit-identical)", q, got, dist[capacity])
					}
				}
			}
		}
	}
}

func TestLossProbabilityAllocationFree(t *testing.T) {
	q := MMcK{Arrival: 100, Service: 100, Servers: 4, Capacity: 10}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := q.LossProbability(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("allocs/op = %v, want 0", allocs)
	}
}

// lossProbabilityReference is the two-pass loss kernel with every logarithm
// taken in place: both passes call math.Log on the birth rate and on every
// state's death rate. FuzzMMcKLossBits holds LossProbability, which takes
// the constant ones once, to it bit for bit.
func lossProbabilityReference(q MMcK) (float64, error) {
	if err := q.check(); err != nil {
		return 0, err
	}
	deathRate := func(n int) float64 {
		servers := n + 1
		if servers > q.Servers {
			servers = q.Servers
		}
		return float64(servers) * q.Service
	}
	var maxLog float64
	logTerm := 0.0
	for n := 0; n < q.Capacity; n++ {
		logTerm = logTerm + math.Log(q.Arrival) - math.Log(deathRate(n))
		if logTerm > maxLog {
			maxLog = logTerm
		}
	}
	sum := math.Exp(0 - maxLog)
	logTerm = 0
	last := sum
	for n := 0; n < q.Capacity; n++ {
		logTerm = logTerm + math.Log(q.Arrival) - math.Log(deathRate(n))
		last = math.Exp(logTerm - maxLog)
		sum += last
	}
	return last / sum, nil
}

// FuzzMMcKLossBits holds LossProbability to the two-pass reference with
// tolerance 0 on the float bits. Servers and capacity are folded into
// 1 ≤ c ≤ K ≤ 200; the rates are taken as given, so invalid ones must fail
// in both.
func FuzzMMcKLossBits(f *testing.F) {
	for _, rho := range []float64{1e-12, 1e-6, 1e-3, 0.5, 1, 2, 1e3, 1e6, 1e12} {
		f.Add(rho*100, 100.0, 1, 10)    // c = 1
		f.Add(rho*100, 100.0, 10, 10)   // c = K
		f.Add(rho, 1.0, 1, 1)           // K = 1
		f.Add(rho*3600, 3600.0, 7, 200) // K = 200
		f.Add(rho, 1.0, 200, 200)       // c = K = 200
	}
	f.Add(0.0, 100.0, 4, 10)
	f.Add(math.NaN(), 100.0, 4, 10)
	f.Fuzz(func(t *testing.T, arrival, service float64, servers, capacity int) {
		c := 1 + int(uint(servers)%200)
		k := c + int(uint(capacity)%uint(201-c))
		q := MMcK{Arrival: arrival, Service: service, Servers: c, Capacity: k}
		want, wantErr := lossProbabilityReference(q)
		got, err := q.LossProbability()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: error %v, reference error %v", q, err, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: LossProbability %v (%#x), reference %v (%#x)",
				q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestLossProbabilityNumericEdges sweeps the loss kernel over ρ from 1e-12
// to 1e12, K ≤ 200 and c ≤ K: p_K must be a finite probability, and wherever
// it and the paper's closed form are both at least 1e-300 they must agree
// within 1e-10 relative.
func TestLossProbabilityNumericEdges(t *testing.T) {
	var worst float64
	for _, rho := range []float64{1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1, 2, 10, 1e3, 1e6, 1e9, 1e12} {
		for _, service := range []float64{1, 100} {
			for _, k := range []int{1, 2, 3, 5, 10, 20, 50, 100, 199, 200} {
				for _, c := range []int{1, 2, 3, 4, 7, 10, 50, 100, 200} {
					if c > k {
						continue
					}
					for _, servers := range []int{c, k} {
						q := MMcK{Arrival: rho * service, Service: service, Servers: servers, Capacity: k}
						p, err := q.LossProbability()
						if err != nil {
							t.Fatalf("%+v: %v", q, err)
						}
						if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
							t.Errorf("%+v: p_K = %v, want a probability", q, p)
							continue
						}
						closed, err := q.LossProbabilityClosedForm()
						if err != nil {
							t.Fatalf("%+v: closed form: %v", q, err)
						}
						if !(p >= 1e-300 && closed >= 1e-300) {
							continue
						}
						d := relDiff(p, closed)
						worst = math.Max(worst, d)
						if !(d <= 1e-10) {
							t.Errorf("%+v: birth–death %v vs closed form %v (rel %.3g)", q, p, closed, d)
						}
					}
				}
			}
		}
	}
	t.Logf("largest relative difference from the closed form: %.3g", worst)
}
