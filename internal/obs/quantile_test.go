package obs

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// exactQuantile computes the same interpolated quantile directly from the
// sorted sample, bucketed by hand — the reference the snapshot estimate is
// checked against.
func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2, 4, 8}
	h := r.Histogram("q", bounds)
	// 10 observations: 4 in (0,1], 3 in (1,2], 2 in (2,4], 1 in (4,8].
	values := []float64{0.2, 0.4, 0.6, 0.8, 1.2, 1.5, 1.8, 2.5, 3.5, 5}
	for _, v := range values {
		h.Observe(v)
	}
	hs := r.Snapshot().Histograms["q"]

	// Hand-computed interpolation: rank = q*count, walk cumulative counts.
	cases := []struct {
		q    float64
		want float64
	}{
		// rank 5 lands 1 deep into the (1,2] bucket of 3: 1 + 1*(1/3).
		{0.50, 1 + 1.0/3.0},
		// rank 2.5 is 2.5/4 through the first bucket: 0 + 1*(2.5/4).
		{0.25, 0.625},
		// rank 9.5 is 0.5/1 through the (4,8] bucket: 4 + 4*0.5.
		{0.95, 6},
		// rank 9.9 is 0.9/1 through the (4,8] bucket: 4 + 4*0.9.
		{0.99, 7.6},
		// rank 10 is the end of the last bucket.
		{1.00, 8},
		{0, 0},
	}
	for _, c := range cases {
		if got := hs.Quantile(c.q); !almost(got, c.want) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !almost(hs.P50, cases[0].want) || !almost(hs.P95, 6) || !almost(hs.P99, 7.6) {
		t.Errorf("snapshot quantiles p50=%g p95=%g p99=%g", hs.P50, hs.P95, hs.P99)
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("over", []float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(100) // all in the overflow bucket
	}
	hs := r.Snapshot().Histograms["over"]
	if got := hs.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %g, want clamp to last bound 2", got)
	}
	if hs.P99 != 2 {
		t.Errorf("overflow p99 = %g", hs.P99)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var hs HistogramSnapshot
	if got := hs.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	r := NewRegistry()
	r.Histogram("empty", nil)
	hs = r.Snapshot().Histograms["empty"]
	if hs.P50 != 0 || hs.P95 != 0 || hs.P99 != 0 {
		t.Errorf("empty snapshot quantiles = %+v", hs)
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	// Dense uniform data across fine buckets: the estimate should track the
	// exact sample quantile closely (within one bucket width).
	r := NewRegistry()
	var bounds []float64
	for b := 0.01; b <= 1.0001; b += 0.01 {
		bounds = append(bounds, b)
	}
	h := r.Histogram("uniform", bounds)
	var sample []float64
	for i := 1; i <= 1000; i++ {
		v := float64(i) / 1000
		sample = append(sample, v)
		h.Observe(v)
	}
	sort.Float64s(sample)
	hs := r.Snapshot().Histograms["uniform"]
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := sample[int(q*1000)-1]
		if got := hs.Quantile(q); math.Abs(got-exact) > 0.011 {
			t.Errorf("Quantile(%g) = %g, exact %g (off by more than a bucket)", q, got, exact)
		}
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("pairs.computed").Add(42)
	r.Gauge("minsim").Set(0.25)
	r.Histogram("lat", []float64{1, 2}).Observe(1.5)
	r.Stage("cluster").Start().End(7)
	var b strings.Builder
	if err := r.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"counter pairs.computed",
		"42",
		"gauge   minsim",
		"0.25",
		"hist    lat",
		"p50=1.5",
		"stage   cluster",
		"items=7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output misses %q:\n%s", want, out)
		}
	}
}
