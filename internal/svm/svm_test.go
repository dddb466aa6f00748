package svm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// separable2D builds a linearly separable 2-D set: positives around (2,2),
// negatives around (-2,-2).
func separable2D(rng *rand.Rand, n int) []Example {
	ex := make([]Example, 0, 2*n)
	for i := 0; i < n; i++ {
		ex = append(ex,
			Example{X: []float64{2 + rng.NormFloat64()*0.3, 2 + rng.NormFloat64()*0.3}, Y: 1},
			Example{X: []float64{-2 + rng.NormFloat64()*0.3, -2 + rng.NormFloat64()*0.3}, Y: -1},
		)
	}
	return ex
}

func TestDCDSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ex := separable2D(rng, 50)
	m, err := TrainDCD(ex, Options{C: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, ex); acc != 1.0 {
		t.Errorf("DCD training accuracy = %v, want 1.0", acc)
	}
	// The separating direction must point towards the positive quadrant.
	if m.W[0] <= 0 || m.W[1] <= 0 {
		t.Errorf("weights %v do not point at positives", m.W)
	}
}

func TestPegasosSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ex := separable2D(rng, 50)
	m, err := TrainPegasos(ex, Options{C: 10, MaxIter: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, ex); acc < 0.99 {
		t.Errorf("Pegasos training accuracy = %v, want >= 0.99", acc)
	}
}

// The two solvers optimize the same objective; their objective values must
// agree closely even though the iterates differ.
func TestSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ex := separable2D(rng, 40)
	// Inject label noise so the optimum is interior (not trivially 0 loss).
	for i := 0; i < 4; i++ {
		ex[i].Y = -ex[i].Y
	}
	c := 1.0
	dcd, err := TrainDCD(ex, Options{C: c, MaxIter: 5000, Tol: 1e-10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	peg, err := TrainPegasos(ex, Options{C: c, MaxIter: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	od, op := Objective(dcd, ex, c), Objective(peg, ex, c)
	if od <= 0 || op <= 0 {
		t.Fatalf("objectives %v %v", od, op)
	}
	// DCD solves the dual to high precision; Pegasos should land within 15%.
	if op > od*1.15 {
		t.Errorf("Pegasos objective %v much worse than DCD %v", op, od)
	}
	if od > op*1.15 {
		t.Errorf("DCD objective %v much worse than Pegasos %v", od, op)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := TrainDCD(nil, Options{}); err == nil {
		t.Error("empty training set accepted")
	}
	oneClass := []Example{{X: []float64{1}, Y: 1}, {X: []float64{2}, Y: 1}}
	if _, err := TrainDCD(oneClass, Options{}); err == nil {
		t.Error("single-class training set accepted")
	}
	badLabel := []Example{{X: []float64{1}, Y: 0.5}, {X: []float64{2}, Y: -1}}
	if _, err := TrainDCD(badLabel, Options{}); err == nil {
		t.Error("bad label accepted")
	}
	ragged := []Example{{X: []float64{1}, Y: 1}, {X: []float64{2, 3}, Y: -1}}
	if _, err := TrainDCD(ragged, Options{}); err == nil {
		t.Error("ragged features accepted")
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		nonFinite := []Example{{X: []float64{1, 0}, Y: 1}, {X: []float64{0, v}, Y: -1}}
		if _, err := TrainDCD(nonFinite, Options{}); err == nil {
			t.Errorf("feature %v accepted", v)
		}
	}
	// FitScaler maps an infinite maximum's column to Inf·0 = NaN.
	inf := []Example{{X: []float64{1, math.Inf(1)}, Y: 1}, {X: []float64{0, 1}, Y: -1}}
	if _, err := TrainDCD(FitScaler(inf).Transform(inf), Options{}); err == nil {
		t.Error("scaled infinite feature accepted")
	}
	if _, err := TrainPegasos(nil, Options{}); err == nil {
		t.Error("Pegasos accepted empty set")
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ex := separable2D(rng, 30)
	m1, _ := TrainDCD(ex, Options{Seed: 42})
	m2, _ := TrainDCD(ex, Options{Seed: 42})
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatalf("DCD not deterministic: %v vs %v", m1.W, m2.W)
		}
	}
	if m1.Bias != m2.Bias {
		t.Error("bias differs across identical runs")
	}
}

func TestPositiveWeights(t *testing.T) {
	m := &Model{W: []float64{0.5, -0.2, 0, 1.5}}
	got := m.PositiveWeights()
	want := []float64{0.5, 0, 0, 1.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PositiveWeights = %v, want %v", got, want)
		}
	}
	// Original untouched.
	if m.W[1] != -0.2 {
		t.Error("PositiveWeights mutated the model")
	}
}

func TestScoreShortVector(t *testing.T) {
	m := &Model{W: []float64{1, 2, 3}, Bias: 0.5}
	// Vectors shorter than W are padded with zeros implicitly.
	if got := m.Score([]float64{1}); got != 1.5 {
		t.Errorf("Score = %v, want 1.5", got)
	}
	if got := m.Predict([]float64{-10, 0, 0}); got != -1 {
		t.Errorf("Predict = %v, want -1", got)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if got := Accuracy(&Model{W: []float64{1}}, nil); got != 0 {
		t.Errorf("Accuracy on empty = %v", got)
	}
}

// Property: for any separable shifted-Gaussian data, DCD reaches perfect
// training accuracy and the margin of every example is >= 0.
func TestDCDSeparableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ex := separable2D(rng, 10+rng.Intn(20))
		m, err := TrainDCD(ex, Options{C: 100, Seed: seed})
		if err != nil {
			return false
		}
		return Accuracy(m, ex) == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: scaling C up never increases the hinge-loss part of the optimum.
func TestDCDHingeMonotoneInC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ex := separable2D(rng, 25)
	for i := 0; i < 5; i++ {
		ex[i].Y = -ex[i].Y // noise
	}
	hinge := func(c float64) float64 {
		m, err := TrainDCD(ex, Options{C: c, MaxIter: 4000, Tol: 1e-10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var h float64
		for _, e := range ex {
			if v := 1 - e.Y*m.Score(e.X); v > 0 {
				h += v
			}
		}
		return h
	}
	// Allow a small slack: the solvers stop at finite tolerance, so the
	// hinge term can wobble by a fraction of a percent around the optimum.
	h1, h10, h100 := hinge(0.1), hinge(1), hinge(10)
	if h10 > h1+0.01 || h100 > h10+0.01 {
		t.Errorf("hinge loss not monotone in C: %v %v %v", h1, h10, h100)
	}
}

func TestObjectiveComputation(t *testing.T) {
	m := &Model{W: []float64{1, 0}, Bias: 0}
	ex := []Example{
		{X: []float64{2, 0}, Y: 1},   // margin 2, no loss
		{X: []float64{0.5, 0}, Y: 1}, // margin .5, hinge .5
		{X: []float64{0, 0}, Y: -1},  // score 0, predicted +, hinge 1
	}
	got := Objective(m, ex, 2)
	want := 0.5 + 2*(0.5+1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Objective = %v, want %v", got, want)
	}
}

// The shapes of dcdCase's example sets.
const (
	shapeDense     = iota // every feature nonzero
	shapeSparse           // about 4% nonzero, as DISTINCT's features are
	shapeZeroRows         // sparse, with some rows all zero
	shapeDeadCols         // sparse, with some columns zero in every row
	shapeRareClass        // sparse, with one or two examples of one class
	numShapes
)

// dcdCase draws a random example set of the given shape and options for
// it. A capped case has a tiny Tol and a small MaxIter, so the run stops at
// MaxIter; otherwise Tol is loose and MaxIter large, so it meets Tol first.
// Values span several magnitudes and both signs; some zeros are −0.
func dcdCase(rng *rand.Rand, shape int, capped bool) ([]Example, Options) {
	n, dim := 2+rng.Intn(60), 1+rng.Intn(12)
	density := 0.04
	if shape == shapeDense {
		density = 1
	} else if float64(dim)*density < 1 {
		density = 1 / float64(dim)
	}
	dead := make([]bool, dim)
	if shape == shapeDeadCols {
		for j := range dead {
			dead[j] = rng.Intn(2) == 0
		}
	}
	rare := 1 + rng.Intn(2) // examples of the rare class
	ex := make([]Example, n)
	for i := range ex {
		x := make([]float64, dim)
		zeroRow := shape == shapeZeroRows && rng.Intn(3) == 0
		for j := range x {
			switch {
			case dead[j] || zeroRow || rng.Float64() >= density:
				if rng.Intn(4) == 0 {
					x[j] = math.Copysign(0, -1)
				}
			default:
				x[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
		}
		y := float64(1 - 2*rng.Intn(2))
		if shape == shapeRareClass {
			y = 1
			if i < rare {
				y = -1
			}
		}
		ex[i] = Example{X: x, Y: y}
	}
	// Both classes must be present.
	ex[0].Y, ex[n-1].Y = -1, 1
	opts := Options{C: []float64{0.1, 1, 10}[rng.Intn(3)], Seed: rng.Int63()}
	if capped {
		opts.MaxIter, opts.Tol = 1+rng.Intn(20), 1e-300
	} else {
		opts.MaxIter, opts.Tol = 2000, 1e-2
	}
	return ex, opts
}

// checkDCD trains ex both ways and fails unless the sparse loop's model is
// the dense oracle's bit for bit. It returns whether the run met Tol
// before MaxIter.
func checkDCD(t testing.TB, ex []Example, opts Options) (early bool) {
	t.Helper()
	want, passes, werr := trainDCDDense(ex, opts)
	got, err := TrainDCD(ex, opts)
	if (err == nil) != (werr == nil) {
		t.Fatalf("sparse error %v, dense error %v", err, werr)
	}
	if err != nil {
		return false
	}
	same := math.Float64bits(got.Bias) == math.Float64bits(want.Bias) && len(got.W) == len(want.W)
	for j := range want.W {
		same = same && math.Float64bits(got.W[j]) == math.Float64bits(want.W[j])
	}
	if !same {
		t.Fatalf("sparse model W=%v b=%v, dense W=%v b=%v (%d examples, %+v)", got.W, got.Bias, want.W, want.Bias, len(ex), opts)
	}
	return passes < opts.MaxIter
}

// TestSparseDCDMatchesDense holds TrainDCD to the dense loop bit for bit
// on every shape, both when the run meets Tol and when it runs out at
// MaxIter.
func TestSparseDCDMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for shape := range numShapes {
		for _, capped := range []bool{false, true} {
			endings := map[bool]int{}
			for range 20 {
				ex, opts := dcdCase(rng, shape, capped)
				endings[checkDCD(t, ex, opts)]++
			}
			if endings[!capped] == 0 {
				t.Errorf("shape %d, capped %v: no run ended %s (%v)", shape, capped,
					map[bool]string{true: "at Tol", false: "at MaxIter"}[!capped], endings)
			}
		}
	}
}

// FuzzDCD runs TestSparseDCDMatchesDense's check on the example sets its
// generator draws from the fuzzed seed, shape and ending.
func FuzzDCD(f *testing.F) {
	for shape := range numShapes {
		f.Add(int64(shape), uint8(shape), false)
		f.Add(int64(shape), uint8(shape), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, capped bool) {
		ex, opts := dcdCase(rand.New(rand.NewSource(seed)), int(shape)%numShapes, capped)
		checkDCD(t, ex, opts)
	})
}
