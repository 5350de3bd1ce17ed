package queueing

import (
	"fmt"
	"math"
)

// MMcK is a c-server queue with Poisson arrivals (rate Arrival), exponential
// per-server service (rate Service), and total system capacity K (in service
// plus waiting). Arrivals finding K requests in the system are lost.
//
// Its loss probability is equation (3) of the paper: for i operational
// servers and buffer size K,
//
//	p_K(i) = [ρᴷ / (i^{K−i}·i!)] / [Σ_{j=0}^{i−1} ρʲ/j! + Σ_{j=i}^{K} ρʲ/(i^{j−i}·i!)],  ρ = α/ν.
//
// The implementation evaluates the state distribution in log space, so large
// K and extreme ρ are safe; the closed form above is exposed separately for
// cross-checking (LossProbabilityClosedForm).
type MMcK struct {
	Arrival  float64 // α
	Service  float64 // ν, per server
	Servers  int     // c (the paper's i: number of operational web servers)
	Capacity int     // K ≥ c: the total system size, in service plus waiting
}

func (q MMcK) check() error {
	if err := checkRates(q.Arrival, q.Service); err != nil {
		return err
	}
	if q.Servers < 1 {
		return fmt.Errorf("%w: servers %d", ErrParam, q.Servers)
	}
	if q.Capacity < 1 {
		return fmt.Errorf("%w: capacity %d", ErrParam, q.Capacity)
	}
	if q.Capacity < q.Servers {
		// K < c leaves servers that can never be busy; the closed form of
		// equation (3) is undefined there. Model that system as M/M/K/K
		// explicitly instead.
		return fmt.Errorf("%w: capacity %d below server count %d", ErrParam, q.Capacity, q.Servers)
	}
	return nil
}

// Utilization returns the offered load per server, α/(c·ν).
func (q MMcK) Utilization() float64 {
	return q.Arrival / (float64(q.Servers) * q.Service)
}

// StateDistribution returns P(N = n) for n = 0..K, computed by the
// overflow-safe birth–death solver. The death rate in state n is
// min(n, c)·ν.
func (q MMcK) StateDistribution() ([]float64, error) {
	if err := q.check(); err != nil {
		return nil, err
	}
	birth := make([]float64, q.Capacity)
	death := make([]float64, q.Capacity)
	for n := 0; n < q.Capacity; n++ {
		birth[n] = q.Arrival
		servers := n + 1
		if servers > q.Servers {
			servers = q.Servers
		}
		death[n] = float64(servers) * q.Service
	}
	return BirthDeath(birth, death)
}

// LossProbability returns p_K: the probability that an arriving request is
// rejected because the system holds K requests.
//
// The computation replays the BirthDeath recursion without materializing the
// rate and probability vectors (the birth and death rates of an M/M/c/K queue
// are closed-form in the state index), so it is allocation-free; the result
// is bit-identical to StateDistribution()[Capacity]. The log birth rate is
// one constant, and so is the log death rate log(c·ν) of every state from
// c−1 on; only the c−1 states below take a logarithm of their own. Each term
// is BirthDeath's expression, (logTerm + log α) − log death, on the same
// operands in the same order, which is what keeps the bits.
//
//ta:hotpath
func (q MMcK) LossProbability() (float64, error) {
	if err := q.check(); err != nil {
		return 0, err
	}
	la := math.Log(q.Arrival)
	lc := math.Log(float64(q.Servers) * q.Service)
	// Pass 1: the BirthDeath logTerm recursion, tracking only the maximum
	// (which starts at 0 = logTerm[0], exactly as BirthDeath's scan does).
	// State n dies at rate (n+1)·ν below c−1 and c·ν from there on.
	var maxLog float64
	logTerm := 0.0
	for n := 0; n < q.Capacity; n++ {
		ld := lc
		if n+1 < q.Servers {
			ld = math.Log(float64(n+1) * q.Service)
		}
		logTerm = (logTerm + la) - ld
		if logTerm > maxLog {
			maxLog = logTerm
		}
	}
	// Pass 2: recompute the identical terms, accumulating the normalization
	// sum in index order; the last term is the unnormalized π_K.
	sum := math.Exp(0 - maxLog)
	logTerm = 0
	last := sum
	for n := 0; n < q.Capacity; n++ {
		ld := lc
		if n+1 < q.Servers {
			ld = math.Log(float64(n+1) * q.Service)
		}
		logTerm = (logTerm + la) - ld
		last = math.Exp(logTerm - maxLog)
		sum += last
	}
	return last / sum, nil
}

// LossProbabilityClosedForm evaluates the paper's equation (3) literally
// (equation (1) when Servers == 1). It is mathematically identical to
// LossProbability and exists as an independently-coded cross-check; prefer
// LossProbability in production use.
func (q MMcK) LossProbabilityClosedForm() (float64, error) {
	if err := q.check(); err != nil {
		return 0, err
	}
	rho := q.Arrival / q.Service // the paper's ρ = α/ν
	c := q.Servers
	k := q.Capacity
	if c == 1 {
		// Equation (1).
		return MM1K{Arrival: q.Arrival, Service: q.Service, Capacity: k}.LossProbability()
	}
	logRho := math.Log(rho)
	// log numerator = K·logρ − (K−c)·log c − log c!
	logNum := float64(k)*logRho - float64(k-c)*math.Log(float64(c)) - logFactorial(c)
	// Denominator terms in log space, summed with max-scaling.
	logs := make([]float64, 0, k+1)
	for j := 0; j < c && j <= k; j++ {
		logs = append(logs, float64(j)*logRho-logFactorial(j))
	}
	for j := c; j <= k; j++ {
		logs = append(logs, float64(j)*logRho-float64(j-c)*math.Log(float64(c))-logFactorial(c))
	}
	maxLog := logs[0]
	for _, l := range logs {
		if l > maxLog {
			maxLog = l
		}
	}
	var den float64
	for _, l := range logs {
		den += math.Exp(l - maxLog)
	}
	return math.Exp(logNum-maxLog) / den, nil
}

// Throughput returns the accepted-request rate α·(1−p_K).
func (q MMcK) Throughput() (float64, error) {
	p, err := q.LossProbability()
	if err != nil {
		return 0, err
	}
	return q.Arrival * (1 - p), nil
}

// MeanCustomers returns E[N].
func (q MMcK) MeanCustomers() (float64, error) {
	dist, err := q.StateDistribution()
	if err != nil {
		return 0, err
	}
	return MeanOf(dist), nil
}

// MeanResponseTime returns the mean sojourn time of accepted requests.
func (q MMcK) MeanResponseTime() (float64, error) {
	l, err := q.MeanCustomers()
	if err != nil {
		return 0, err
	}
	x, err := q.Throughput()
	if err != nil {
		return 0, err
	}
	return l / x, nil
}

// logFactorial returns ln(n!) via the log-gamma function.
func logFactorial(n int) float64 {
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}
