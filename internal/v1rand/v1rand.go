// Package v1rand is a math/rand Source whose streams are bit for bit
// those of rand.NewSource, with a Seed about five times cheaper.
//
// rand.NewSource's Seed fills its 607-word additive lagged Fibonacci state
// from 1 841 sequential Park–Miller steps x ← 48271·x mod (2³¹−1),
// discarding the first 20 and packing the next 1 821 three to a word. The
// n-th step from seed s is s·48271ⁿ mod (2³¹−1), so this Seed computes
// each of the 1 821 values as one independent product with a power
// tabulated once at init, reduced modulo the Mersenne prime with a shift
// and an add. The products do not wait on each other as the steps do.
// Draws (Uint64, Int63) are rand's own algorithm and state layout.
//
// The simulation's noise generators (soc.NoiseRand) and the fleet
// arrival generator use it: both reseed per query, where rand.NewSource's
// sequential seeding was most of the cost of a draw-light stream.
// FuzzSourceMatchesMathRand pins the equivalence.
package v1rand

// The generator's constants, as in Go's src/math/rand/rng.go.
const (
	length = 607 // state words
	tap    = 273 // lag of the second operand
	mask   = 1<<63 - 1

	modulus = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime
	mult    = 48271     // the Park–Miller multiplier
	skip    = 20        // Park–Miller steps discarded before the first word
	zeroAlt = 89482311  // the seed a zero residue is replaced with
)

// powers[w][j] is mult^(skip+1+3w+j) mod modulus: state word w packs
// the seed's products with powers[w][0], powers[w][1] and powers[w][2].
var powers [length][3]uint64

func init() {
	x := uint64(1)
	for range skip {
		x = x * mult % modulus
	}
	for w := range powers {
		for j := range powers[w] {
			x = x * mult % modulus
			powers[w][j] = x
		}
	}
}

// Source is a math/rand Source64 with rand.NewSource's streams. The zero
// Source is not seeded; make one with NewSource, or call Seed first. It
// is not safe for concurrent use.
type Source struct {
	tap, feed int
	vec       [length]int64
}

// NewSource returns a Source seeded with seed, producing the stream
// rand.NewSource(seed) produces.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the state to rand.NewSource(seed)'s: seeds congruent
// modulo 2³¹−1 give the same stream, and a zero residue uses 89482311.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - tap
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroAlt
	}
	x := uint64(seed)
	for w, p := range &powers {
		u := int64(mulMod(x, p[0])) << 40
		u ^= int64(mulMod(x, p[1])) << 20
		u ^= int64(mulMod(x, p[2]))
		s.vec[w] = u ^ cooked[w]
	}
}

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2]. The product is
// below 2⁶², and 2³¹ ≡ 1 folds its high bits onto its low ones; the fold
// is below 2·(2³¹−1), and a prime modulus never divides the product, so
// one conditional subtraction completes it.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&modulus + p>>31
	if r >= modulus {
		r -= modulus
	}
	return r
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask) }
