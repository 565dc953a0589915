package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referencePrune is the original sort-based per-row magnitude pruning,
// kept as the oracle Prune must match bit for bit: a full sort of each
// row's column indices by (|w|, column), zeroing the first drop.
func referencePrune(dense []float32, rows, cols int, sparsity float64) []float32 {
	out := make([]float32, len(dense))
	copy(out, dense)
	drop := int(math.Floor(sparsity * float64(cols)))
	if drop == 0 {
		return out
	}
	idx := make([]int, cols)
	for i := 0; i < rows; i++ {
		row := out[i*cols : (i+1)*cols]
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			va := math.Abs(float64(row[idx[a]]))
			vb := math.Abs(float64(row[idx[b]]))
			if va != vb {
				return va < vb
			}
			return idx[a] < idx[b]
		})
		for _, j := range idx[:drop] {
			row[j] = 0
		}
	}
	return out
}

// tieHeavyDense draws finite weights that force every tie the ordering
// contract covers: exact zeros, negative zeros, ±x pairs drawn from a
// small magnitude pool, and ordinary random values.
func tieHeavyDense(rng *rand.Rand, rows, cols int) []float32 {
	pool := []float32{0.5, 0.25, 1e-3, 3, math.SmallestNonzeroFloat32, math.MaxFloat32}
	d := make([]float32, rows*cols)
	for i := range d {
		switch rng.Intn(6) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = float32(math.Copysign(0, -1))
		case 2, 3:
			v := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				v = -v
			}
			d[i] = v
		default:
			d[i] = rng.Float32()*2 - 1
		}
	}
	return d
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestPruneMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	colsList := []int{1, 2, 3, 5, 8, 27, 64, 100, 576, 1000, 1728, 3456}
	for n := 0; n < 8; n++ {
		colsList = append(colsList, 1+rng.Intn(3456))
	}
	for _, cols := range colsList {
		rows := 1 + rng.Intn(4)
		if cols < 64 {
			rows = 16
		}
		for _, sp := range []float64{0, 0.3, 0.8, 0.99} {
			for trial := 0; trial < 3; trial++ {
				var dense []float32
				if trial == 0 {
					dense = randomDense(rng, rows, cols, 1)
				} else {
					dense = tieHeavyDense(rng, rows, cols)
				}
				got := Prune(dense, rows, cols, sp)
				want := referencePrune(dense, rows, cols, sp)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("cols %d sparsity %v trial %d: element %d = %v, reference %v",
						cols, sp, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPruneKeepsNaN documents the NaN contract: NaN ranks above every
// magnitude, so even at 99% sparsity a row's NaN survives. (The
// sort-based reference's comparator is not a strict weak order once a
// NaN is present, so it is no oracle here.)
func TestPruneKeepsNaN(t *testing.T) {
	const cols = 200
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(math.Float32bits(nan) | 1<<31)
	dense := make([]float32, 2*cols)
	for j := 0; j < cols; j++ {
		dense[j] = float32(j + 1)
		dense[cols+j] = -float32(j + 1)
	}
	dense[3] = nan
	dense[cols+150] = negNaN
	out := Prune(dense, 2, cols, 0.99)
	if !math.IsNaN(float64(out[3])) || !math.IsNaN(float64(out[cols+150])) {
		t.Fatalf("NaN pruned: row 0 col 3 = %v, row 1 col 150 = %v", out[3], out[cols+150])
	}
	// The one other survivor per row is its largest finite magnitude.
	for r := 0; r < 2; r++ {
		kept := 0
		for j := 0; j < cols; j++ {
			if v := out[r*cols+j]; v != 0 && !math.IsNaN(float64(v)) {
				kept++
				if j != cols-1 {
					t.Errorf("row %d kept column %d, want %d", r, j, cols-1)
				}
			}
		}
		if kept != 1 {
			t.Errorf("row %d kept %d finite weights, want 1", r, kept)
		}
	}
}

// TestSelectSmallestAdversarial drives the selection on inputs that
// defeat a naive pivot (sorted, reversed, organ-pipe, sawtooth) for
// every k, so the sort fallback after the partition budget runs too.
func TestSelectSmallestAdversarial(t *testing.T) {
	const n = 257
	shapes := map[string]func(i int) uint64{
		"sorted":   func(i int) uint64 { return uint64(i) },
		"reversed": func(i int) uint64 { return uint64(n - i) },
		"organ":    func(i int) uint64 { return uint64(min(i, n-i))<<16 | uint64(i) },
		"sawtooth": func(i int) uint64 { return uint64(i%7)<<16 | uint64(i) },
	}
	for name, gen := range shapes {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = gen(i)
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		for k := 0; k <= n; k++ {
			got := slices.Clone(keys)
			selectSmallest(got, k)
			slices.Sort(got[:k])
			if !slices.Equal(got[:k], want[:k]) {
				t.Fatalf("%s k=%d: selected %v, want %v", name, k, got[:k], want[:k])
			}
		}
	}
}

// BenchmarkPrune prunes the four AlexNet conv layers' weight shapes
// ([OutC] × [InC·3·3]) at the default 80% sparsity.
func BenchmarkPrune(b *testing.B) {
	shapes := [][2]int{{64, 27}, {192, 576}, {384, 1728}, {256, 3456}}
	rng := rand.New(rand.NewSource(1))
	dense := make([][]float32, len(shapes))
	for i, s := range shapes {
		dense[i] = randomDense(rng, s[0], s[1], 1)
	}
	b.ReportAllocs()
	for b.Loop() {
		for i, s := range shapes {
			Prune(dense[i], s[0], s[1], 0.8)
		}
	}
}
