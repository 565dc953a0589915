package sessiontrace

import (
	"fmt"
	"testing"
)

// BenchmarkSpanHotPathUnsampled measures the cost a tracer adds to a
// session the sampler skips — the common case at low rates. The
// decision is a hash and a compare with no lock and no allocation, so
// instrumented code paths pay almost nothing for sessions they never
// trace. TestUnsampledHooksDoNotAllocate gates the zero allocations.
func BenchmarkSpanHotPathUnsampled(b *testing.B) {
	tr := New(Config{SampleRate: 0.25, Seed: 1})
	name := ""
	for i := 0; i < 1000; i++ {
		n := fmt.Sprintf("octree#%d", i)
		if _, ok := tr.sampled(n); !ok {
			name = n
			break
		}
	}
	if name == "" {
		b.Fatal("no unsampled name found")
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.WaveStart(name, 0, 4, "[big gpu]")
			tr.WaveEnd(name, 0, 1)
		}
	})
}

// BenchmarkSpanHotPathSampled is the paid path: every hook records.
// Traces are finished and recycled every few waves so eviction keeps
// the retained set (and the benchmark's memory) bounded.
func BenchmarkSpanHotPathSampled(b *testing.B) {
	tr := New(Config{SampleRate: 1, Seed: 1})
	tr.cap = 8
	b.ReportAllocs()
	name, wave := "octree#0", 0
	tr.Arrived(name, "octree")
	for i := 0; i < b.N; i++ {
		tr.WaveStart(name, wave, 4, "[big gpu]")
		tr.WaveEnd(name, wave, 0.001)
		wave++
		if wave == 64 {
			tr.SessionEnd(name, 1, 0, 4, false, "")
			name = fmt.Sprintf("octree#%d", i)
			wave = 0
			tr.Arrived(name, "octree")
		}
	}
}

// BenchmarkSamplingDecision isolates the pure decision function.
func BenchmarkSamplingDecision(b *testing.B) {
	tr := New(Config{SampleRate: 0.1, Seed: 42})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.sampled("octree#12345")
	}
}
