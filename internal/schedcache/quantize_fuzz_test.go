package schedcache

import (
	"maps"
	"math"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/soc"
)

// fuzzClasses are the classes a fuzzed environment can hold, one per bit
// of the shape byte.
var fuzzClasses = [...]core.PUClass{core.ClassBig, core.ClassMedium, core.ClassLittle, core.ClassGPU}

// FuzzQuantizeEnv checks the cache-key helpers on any environment and
// bucket: every quantized intensity is finite and in (0, 1], quantizing
// is idempotent, the input is never mutated, and Key reads a raw
// environment exactly as it reads its quantized one. shape selects the
// environment: bit 4 makes it nil, and bits 0–3 put big, medium, little
// and gpu in it. The committed corpus holds NaN, ±Inf, negative and
// above-1 intensities, nil and empty environments, and the buckets 0,
// NaN and 1e-300.
func FuzzQuantizeEnv(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, big, medium, little, gpu, bucket float64) {
		var raw soc.Env
		if shape&0x10 == 0 {
			raw = soc.Env{}
			for i, v := range [...]float64{big, medium, little, gpu} {
				if shape&(1<<i) != 0 {
					raw[fuzzClasses[i]] = soc.Load{MemIntensity: v}
				}
			}
		}
		before := make(map[core.PUClass]uint64, len(raw))
		for c, l := range raw {
			before[c] = math.Float64bits(l.MemIntensity)
		}

		q := QuantizeEnv(raw, bucket)
		for c, l := range q {
			if v := l.MemIntensity; math.IsNaN(v) || v <= 0 || v > 1 {
				t.Fatalf("QuantizeEnv(%v, %v)[%s] = %v, want a value in (0, 1]", raw, bucket, c, v)
			}
		}
		if again := QuantizeEnv(q, bucket); !maps.Equal(again, q) {
			t.Fatalf("QuantizeEnv is not idempotent at bucket %v: %v -> %v -> %v", bucket, raw, q, again)
		}
		after := make(map[core.PUClass]uint64, len(raw))
		for c, l := range raw {
			after[c] = math.Float64bits(l.MemIntensity)
		}
		if !maps.Equal(before, after) {
			t.Fatalf("QuantizeEnv mutated its input at bucket %v", bucket)
		}
		if kr, kq := Key("fp", "dev", raw, bucket, Knobs{}), Key("fp", "dev", q, bucket, Knobs{}); kr != kq {
			t.Fatalf("Key of %v is %q, of its quantized %v %q", raw, kr, q, kq)
		}
	})
}
