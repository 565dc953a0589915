package alexnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// goldenSparseCSR is the SHA-256 of the default sparse model's pruned
// conv weights (every layer's RowPtr, Col and Float32bits(Val), in layer
// order, little-endian). It pins the pruning output byte for byte, so a
// faster Prune or FromDense cannot silently change which weights survive.
const goldenSparseCSR = "4ef1c164f21270b8ce4bab211e8c3eaf32f0643223eb7853c68844056ba54692"

func TestSparseModelCSRGolden(t *testing.T) {
	m := NewModel(DefaultSeed, DefaultSparsity)
	h := sha256.New()
	var buf [4]byte
	put := func(u uint32) {
		binary.LittleEndian.PutUint32(buf[:], u)
		h.Write(buf[:])
	}
	for i := range m.Convs {
		c := m.Convs[i].CSR
		for _, p := range c.RowPtr {
			put(uint32(p))
		}
		for _, col := range c.Col {
			put(uint32(col))
		}
		for _, v := range c.Val {
			put(math.Float32bits(v))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSparseCSR {
		t.Fatalf("sparse model CSR hash = %s, want %s", got, goldenSparseCSR)
	}
}
