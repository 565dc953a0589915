package v1rand

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream draws n values of each kind from got and want in the same
// interleaving and fails at the first differing bit.
func sameStream(t *testing.T, label string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := range n {
		var g, w uint64
		switch i % 4 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		default:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		}
		if g != w {
			t.Fatalf("%s: draw %d (kind %d) = %#x, math/rand %#x", label, i, i%4, g, w)
		}
	}
}

// seedEdges are the seeds whose residue handling differs: zero and its
// replacement, negatives, the int64 extremes, and multiples of 2³¹−1.
var seedEdges = []int64{
	0, 1, -1, 2, zeroAlt, -zeroAlt, modulus, -modulus, 2 * modulus, modulus - 1, modulus + 1,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 31, -(1 << 31), 101, 20260101,
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range seedEdges {
		sameStream(t, "edge seed", rand.New(NewSource(seed)), rand.New(rand.NewSource(seed)), 3*length)
	}
	// Reseeding a used source restarts its stream, through rand.Rand's
	// Seed as soc.NoiseRand's pool does.
	got, want := rand.New(NewSource(7)), rand.New(rand.NewSource(7))
	for _, seed := range seedEdges {
		sameStream(t, "before reseed", got, want, 1000)
		got.Seed(seed)
		want.Seed(seed)
		sameStream(t, "after reseed", got, want, 2*length+3)
	}
}

// FuzzSourceMatchesMathRand checks the Source against math/rand's v1
// source bit for bit: a fresh stream of draws past the state's 607-word
// wrap, then the same source reseeded mid-stream.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range seedEdges {
		f.Add(seed, uint16(3*length), seed+1)
	}
	f.Add(int64(5), uint16(0), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseed int64) {
		n := int(draws) % 4096
		got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		sameStream(t, "fresh", got, want, n)
		got.Seed(reseed)
		want.Seed(reseed)
		sameStream(t, "reseeded", got, want, 2*length)
	})
}

func BenchmarkSeed(b *testing.B) {
	b.Run("v1rand", func(b *testing.B) {
		s := NewSource(0)
		for i := 0; b.Loop(); i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; b.Loop(); i++ {
			s.Seed(int64(i))
		}
	})
}
