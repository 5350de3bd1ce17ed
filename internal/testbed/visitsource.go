package testbed

// math/rand's additive lagged Fibonacci generator: a 607-word register read
// at two taps 273 apart. int32max is the modulus of its Lehmer seeding
// sequence.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// lehmerPow[n] = 48271ⁿ mod (2³¹−1), for every step of the seeding sequence
// a register word reads.
var lehmerPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * 48271 % int32max
	}
	return p
}()

// visitSource is a rand.Source64 whose output equals rand.NewSource(seed)'s
// for every seed, but whose Seed costs O(1) instead of 1,841 dependent
// multiplications and a 4.9 KB allocation. A load-generator worker reseeds
// one per visit, and a visit draws only a few dozen values.
//
// rand.NewSource reduces the seed to x₀ in [1, 2³¹−1) and fills word i of
// its register from the Lehmer sequence xₙ = 48271·xₙ₋₁ mod (2³¹−1):
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i]
//
// Because xₙ = x₀·48271ⁿ mod (2³¹−1), each word can be computed alone from
// lehmerPow. Draw k reads words (333−k) mod 607 and (606−k) mod 607 and
// overwrites the first with their sum, so a word is computed the first time
// a draw reads it after a Seed, and draws past the 607-word lag read the
// sums written before. stamp[i] == gen marks word i as current.
//
// A visitSource is not safe for concurrent use.
type visitSource struct {
	tap, feed int
	x0        uint64
	gen       uint64
	vec       [rngLen]int64
	stamp     [rngLen]uint64
}

// newVisitSource returns a source seeded like rand.NewSource(seed).
func newVisitSource(seed int64) *visitSource {
	s := &visitSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *visitSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.gen++
}

// word returns register word i, computing its seeded value on its first
// read since the last Seed.
func (s *visitSource) word(i int) int64 {
	if s.stamp[i] != s.gen {
		n := 21 + 3*i
		a := s.x0 * lehmerPow[n] % int32max
		b := s.x0 * lehmerPow[n+1] % int32max
		c := s.x0 * lehmerPow[n+2] % int32max
		s.vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ rngCooked[i]
		s.stamp[i] = s.gen
	}
	return s.vec[i]
}

// Uint64 returns the next 64-bit value.
func (s *visitSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit value.
func (s *visitSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
