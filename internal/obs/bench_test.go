package obs

import "testing"

// The disabled (nil-registry) fast path must cost nothing measurable: a nil
// check per update, no clock reads, no allocation. These benchmarks pin
// that down next to the enabled cost.

func BenchmarkCounterAddNil(b *testing.B) {
	var r *Registry
	c := r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var r *Registry
	h := r.Histogram("bench", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.01)
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := NewRegistry().Histogram("bench", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.01)
	}
}

func BenchmarkSpanNil(b *testing.B) {
	var r *Registry
	st := r.Stage("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := st.Start()
		sp.End(1)
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	st := NewRegistry().Stage("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := st.Start()
		sp.End(1)
	}
}
