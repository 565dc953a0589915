package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromDense converts a row-major dense matrix to CSR, dropping exact
// zeros: the dense-side reference for the CSR kernels and pruning.
func fromDense(dense []float32, rows, cols int) *CSR {
	if len(dense) != rows*cols {
		panic(fmt.Sprintf("sparse: dense size %d != %d*%d", len(dense), rows, cols))
	}
	m := NewCSR(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := dense[i*cols+j]; v != 0 {
				m.Col = append(m.Col, int32(j))
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = int32(len(m.Val))
	}
	return m
}

// toDense expands m to a row-major dense slice.
func toDense(m *CSR) []float32 {
	out := make([]float32, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out[i*m.Cols+int(m.Col[p])] = m.Val[p]
		}
	}
	return out
}

func randomDense(rng *rand.Rand, rows, cols int, density float64) []float32 {
	d := make([]float32, rows*cols)
	for i := range d {
		if rng.Float64() < density {
			d[i] = rng.Float32()*2 - 1
		}
	}
	return d
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		dense := randomDense(rng, rows, cols, 0.4)
		m := fromDense(dense, rows, cols)
		if err := m.Validate(); err != nil {
			return false
		}
		back := toDense(m)
		for i := range dense {
			if dense[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFromDensePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fromDense([]float32{1, 2, 3}, 2, 2)
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := fromDense([]float32{1, 0, 0, 2}, 2, 2)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	cases := []func(*CSR){
		func(m *CSR) { m.RowPtr[0] = 1 },                  // bad origin
		func(m *CSR) { m.RowPtr[2] = 99 },                 // nnz mismatch
		func(m *CSR) { m.Col[0] = -1 },                    // column underflow
		func(m *CSR) { m.Col[0] = int32(m.Cols) },         // column overflow
		func(m *CSR) { m.RowPtr[1] = 2; m.RowPtr[2] = 1 }, // negative extent
	}
	for i, corrupt := range cases {
		c := fromDense([]float32{1, 3, 0, 2}, 2, 2)
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: corruption not detected", i)
		}
	}
	// Non-increasing columns within a row.
	dup := fromDense([]float32{1, 3, 0, 2}, 2, 2)
	dup.Col[1] = dup.Col[0]
	if err := dup.Validate(); err == nil {
		t.Error("duplicate column not detected")
	}
}

func TestAt(t *testing.T) {
	dense := []float32{0, 5, 0, 7, 0, 9}
	m := fromDense(dense, 2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if got, want := m.At(i, j), dense[i*3+j]; got != want {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestSpMVMatchesDense checks sparse matrix × dense vector against the
// dense product; a vector is a one-column B, so SpMMRange with n = 1 is
// SpMV.
func TestSpMVMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		dense := randomDense(rng, rows, cols, 0.3)
		x := make([]float32, cols)
		for i := range x {
			x[i] = rng.Float32()
		}
		m := fromDense(dense, rows, cols)
		got := make([]float32, rows)
		m.SpMMRange(got, x, 1, 0, rows)
		for i := 0; i < rows; i++ {
			var want float32
			for j := 0; j < cols; j++ {
				want += dense[i*cols+j] * x[j]
			}
			if math.Abs(float64(got[i]-want)) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSpMVRangePartition checks that row bands computed separately equal
// one full pass, the invariant the worker-pool split relies on.
func TestSpMVRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const rows, cols = 17, 13
	dense := randomDense(rng, rows, cols, 0.3)
	x := make([]float32, cols)
	for i := range x {
		x[i] = rng.Float32()
	}
	m := fromDense(dense, rows, cols)
	full := make([]float32, rows)
	m.SpMMRange(full, x, 1, 0, rows)
	split := make([]float32, rows)
	m.SpMMRange(split, x, 1, 0, 6)
	m.SpMMRange(split, x, 1, 6, 17)
	for i := range full {
		if full[i] != split[i] {
			t.Fatalf("partitioned SpMV differs at row %d", i)
		}
	}
}

func TestSpMMMatchesDenseGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const rows, k, n = 8, 10, 6
	denseA := randomDense(rng, rows, k, 0.4)
	b := make([]float32, k*n)
	for i := range b {
		b[i] = rng.Float32()
	}
	m := fromDense(denseA, rows, k)
	got := make([]float32, rows*n)
	m.SpMMRange(got, b, n, 0, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			var want float32
			for p := 0; p < k; p++ {
				want += denseA[i*k+p] * b[p*n+j]
			}
			if math.Abs(float64(got[i*n+j]-want)) > 1e-4 {
				t.Fatalf("SpMMRange(%d,%d) = %v, want %v", i, j, got[i*n+j], want)
			}
		}
	}
}

func TestSpMMRangeOverwrites(t *testing.T) {
	// SpMMRange must overwrite its band of C, not accumulate.
	m := fromDense([]float32{2}, 1, 1)
	b := []float32{3}
	c := []float32{100}
	m.SpMMRange(c, b, 1, 0, 1)
	if c[0] != 6 {
		t.Errorf("SpMMRange did not overwrite: %v", c[0])
	}
}

func TestPruneSparsityLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rows, cols = 12, 40
	dense := make([]float32, rows*cols)
	for i := range dense {
		dense[i] = rng.Float32() + 0.01 // all nonzero
	}
	m := pruneDense(dense, rows, cols, 0.8)
	// Per-row pruning drops floor(0.8*40)=32 of 40 → density 0.2 exactly.
	if d := float64(m.NNZ()) / (rows * cols); math.Abs(d-0.2) > 1e-9 {
		t.Errorf("density after 80%% pruning = %v, want 0.2", d)
	}
	for i := 0; i < rows; i++ {
		if n := m.RowPtr[i+1] - m.RowPtr[i]; n != 8 {
			t.Errorf("row %d nnz = %d, want 8 (structured pruning keeps rows balanced)", i, n)
		}
	}
}

func TestPruneKeepsLargestMagnitudes(t *testing.T) {
	dense := []float32{0.1, -5, 0.2, 4}          // one row
	got := toDense(pruneDense(dense, 1, 4, 0.5)) // drop 2 smallest |w|
	want := []float32{0, -5, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PruneCSR = %v, want %v", got, want)
		}
	}
}

func TestPruneZeroSparsityIsIdentity(t *testing.T) {
	dense := []float32{1, 0, 3, -4}
	if err := sameCSR(pruneDense(dense, 2, 2, 0), fromDense(dense, 2, 2)); err != nil {
		t.Fatalf("zero sparsity must keep every nonzero: %v", err)
	}
}

func TestPrunePanicsOnBadSparsity(t *testing.T) {
	for _, s := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("sparsity %v should panic", s)
				}
			}()
			pruneDense([]float32{1}, 1, 1, s)
		}()
	}
}
