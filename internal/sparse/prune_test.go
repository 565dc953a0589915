package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referencePrune is the original sort-based per-row magnitude pruning,
// kept as the oracle PruneCSR must match bit for bit through fromDense:
// a full sort of each row's column indices by (|w|, column), zeroing the
// first drop.
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

// oraclePrune is fromDense(referencePrune(...)), extended to NaN weights
// by the contract that NaN ranks above every magnitude. The reference's
// comparator is no strict weak order once a NaN is present, so a row
// with NaNs runs the reference over its non-NaN weights alone, with the
// same drop count; only when the row has too few of those do NaNs drop
// too, ordered among themselves by magnitude bits, then column.
func oraclePrune(dense []float32, rows, cols int, sparsity float64) *CSR {
	isNaN := func(w float32) bool { return w != w }
	if !slices.ContainsFunc(dense, isNaN) {
		return fromDense(referencePrune(dense, rows, cols, sparsity), rows, cols)
	}
	drop := int(math.Floor(sparsity * float64(cols)))
	out := slices.Clone(dense)
	for i := 0; i < rows; i++ {
		row := out[i*cols : (i+1)*cols]
		var plain, nans []int
		for j, w := range row {
			if isNaN(w) {
				nans = append(nans, j)
			} else {
				plain = append(plain, j)
			}
		}
		if drop < len(plain) {
			sub := make([]float32, len(plain))
			for k, j := range plain {
				sub[k] = row[j]
			}
			// floor((drop+½)/n · n) = drop, and the ratio stays below 1.
			sp := (float64(drop) + 0.5) / float64(len(sub))
			for k, w := range referencePrune(sub, 1, len(sub), sp) {
				row[plain[k]] = w
			}
			continue
		}
		for _, j := range plain {
			row[j] = 0
		}
		mag := func(j int) uint32 { return math.Float32bits(row[j]) &^ (1 << 31) }
		sort.SliceStable(nans, func(a, b int) bool { return mag(nans[a]) < mag(nans[b]) })
		for _, j := range nans[:drop-len(plain)] {
			row[j] = 0
		}
	}
	return fromDense(out, rows, cols)
}

// pruneDense runs PruneCSR over a dense row-major matrix.
func pruneDense(dense []float32, rows, cols int, sparsity float64) *CSR {
	i := 0
	return PruneCSR(rows, cols, sparsity, func(row []float32) {
		copy(row, dense[i*cols:(i+1)*cols])
		i++
	})
}

// sameCSR reports the first difference between two CSR matrices,
// comparing values by their bits.
func sameCSR(got, want *CSR) error {
	if err := got.Validate(); err != nil {
		return err
	}
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		return fmt.Errorf("RowPtr %v, want %v", got.RowPtr, want.RowPtr)
	}
	for p := range got.Val {
		if got.Col[p] != want.Col[p] || math.Float32bits(got.Val[p]) != math.Float32bits(want.Val[p]) {
			return fmt.Errorf("entry %d = (col %d, %v), want (col %d, %v)",
				p, got.Col[p], got.Val[p], want.Col[p], want.Val[p])
		}
	}
	return nil
}

// oneBucketDense puts every weight of a row inside one histogram bucket
// (consecutive float32 magnitudes just above 1, ascending, descending or
// in sawtooth order, with alternating signs), so the in-bucket select
// does all of the work.
func oneBucketDense(rng *rand.Rand, rows, cols int) []float32 {
	d := make([]float32, rows*cols)
	shape := rng.Intn(3)
	for i := range d {
		j := i % cols
		var u uint32
		switch shape {
		case 0:
			u = uint32(j)
		case 1:
			u = uint32(cols - j)
		default:
			u = uint32(j % 7)
		}
		w := math.Float32frombits(math.Float32bits(1) + u)
		if j%2 == 1 {
			w = -w
		}
		d[i] = w
	}
	return d
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
			for trial := 0; trial < 4; trial++ {
				var dense []float32
				switch trial {
				case 0:
					dense = randomDense(rng, rows, cols, 1)
				case 3:
					dense = oneBucketDense(rng, rows, cols)
				default:
					dense = tieHeavyDense(rng, rows, cols)
				}
				got := pruneDense(dense, rows, cols, sp)
				want := fromDense(referencePrune(dense, rows, cols, sp), rows, cols)
				if err := sameCSR(got, want); err != nil {
					t.Fatalf("cols %d sparsity %v trial %d: %v", cols, sp, trial, err)
				}
			}
		}
	}
}

// TestPruneKeepsNaN documents the NaN contract: NaN ranks above every
// magnitude, so even at 99% sparsity a row's NaN survives.
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
	out := toDense(pruneDense(dense, 2, cols, 0.99))
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

// fuzzPalette is the weight alphabet FuzzPruneCSR draws from, one byte
// per weight: every special value and tie the ordering contract covers,
// then ordinary values.
var fuzzPalette = func() [256]float32 {
	nan := math.Float32frombits(0x7fc00000)
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		nan, -nan, math.Float32frombits(0x7f800001), math.Float32frombits(0xffffffff),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
		math.MaxFloat32, -math.MaxFloat32,
		0.5, -0.5, 0.25, -0.25, 1e-3, -1e-3, 3, -3,
	}
	var p [256]float32
	copy(p[:], special)
	rng := rand.New(rand.NewSource(1))
	for i := len(special); i < len(p); i++ {
		p[i] = (rng.Float32()*2 - 1) * 0.25
	}
	return p
}()

// FuzzPruneCSR checks PruneCSR against oraclePrune on weights drawn from
// fuzzPalette: data is cycled over a rows×cols matrix, so short inputs
// repeat values and force ties.
func FuzzPruneCSR(f *testing.F) {
	f.Add(uint8(0), uint16(26), uint16(52429), []byte{0, 1, 14, 15, 40, 41})
	f.Add(uint8(3), uint16(3455), uint16(52429), []byte{4, 5, 6, 7, 2, 3, 8, 9, 10, 11, 200})
	f.Add(uint8(1), uint16(0), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, rowsB uint8, colsB, spB uint16, data []byte) {
		rows, cols := 1+int(rowsB%4), 1+int(colsB%3456)
		sparsity := float64(spB) / (1 << 16)
		dense := make([]float32, rows*cols)
		for i := range dense {
			if len(data) > 0 {
				dense[i] = fuzzPalette[data[i%len(data)]]
			}
		}
		if err := sameCSR(pruneDense(dense, rows, cols, sparsity), oraclePrune(dense, rows, cols, sparsity)); err != nil {
			t.Fatalf("%dx%d sparsity %v: %v", rows, cols, sparsity, err)
		}
	})
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
			pruneDense(dense[i], s[0], s[1], 0.8)
		}
	}
}
