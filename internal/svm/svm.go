// Package svm implements linear Support Vector Machines from scratch on the
// standard library only. DISTINCT (Section 3) uses a linear-kernel SVM to
// learn one weight per join path from an automatically constructed training
// set; the learned weights turn per-path similarities into one combined
// similarity.
//
// The solver is TrainDCD, dual coordinate descent for the L1-loss (hinge)
// SVM (Hsieh et al., ICML 2008): deterministic given a seed, and cheap on
// the sparse features DISTINCT produces (most join paths link a training
// pair through nothing), because each update runs over the example's
// nonzero features only. Its test oracles in oracle_test.go are the dense
// form of the same loop, which it must equal bit for bit, and the Pegasos
// stochastic subgradient solver (Shalev-Shwartz et al., 2007), which
// trains the same objective independently; the tests hold the two solvers
// to closely matching models and objectives.
//
// The bias term is handled by augmenting every example with a constant
// feature inside the solvers; callers never see the augmentation.
package svm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Example is one training example: a dense feature vector and a label that
// must be +1 or -1.
type Example struct {
	X []float64
	Y float64
}

// Model is a trained linear classifier: Score(x) = W·x + Bias.
type Model struct {
	W    []float64
	Bias float64
}

// Score returns the signed margin of x.
func (m *Model) Score(x []float64) float64 {
	s := m.Bias
	for i, w := range m.W {
		if i < len(x) {
			s += w * x[i]
		}
	}
	return s
}

// Predict returns +1 or -1.
func (m *Model) Predict(x []float64) float64 {
	if m.Score(x) >= 0 {
		return 1
	}
	return -1
}

// PositiveWeights returns a copy of W with negative components clipped to
// zero. When the model combines per-join-path similarities into one overall
// similarity, a negative weight would let a high similarity on one path
// *reduce* the total; the paper notes that unimportant paths get weights
// "close to zero and can be ignored", so clipping is the faithful reading.
func (m *Model) PositiveWeights() []float64 {
	w := make([]float64, len(m.W))
	for i, v := range m.W {
		if v > 0 {
			w[i] = v
		}
	}
	return w
}

// Options configures training.
type Options struct {
	// C is the soft-margin penalty; larger C fits the training data harder.
	// Defaults to 1.
	C float64
	// MaxIter caps the number of passes over the data (the test oracle's
	// Pegasos takes MaxIter·len(examples) stochastic steps). Defaults to
	// 1000.
	MaxIter int
	// Tol is the convergence tolerance on the projected gradient range
	// (DCD only). Defaults to 1e-6.
	Tol float64
	// Seed drives example shuffling; training is deterministic given a seed.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.C <= 0 {
		o.C = 1
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

var (
	errNoExamples = errors.New("svm: no training examples")
	errOneClass   = errors.New("svm: training set contains a single class")
)

func validate(examples []Example) (dim int, err error) {
	if len(examples) == 0 {
		return 0, errNoExamples
	}
	dim = len(examples[0].X)
	pos, neg := 0, 0
	for i, e := range examples {
		if len(e.X) != dim {
			return 0, fmt.Errorf("svm: example %d has %d features, example 0 has %d", i, len(e.X), dim)
		}
		for j, v := range e.X {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return 0, fmt.Errorf("svm: example %d has non-finite feature %d: %v", i, j, v)
			}
		}
		switch e.Y {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return 0, fmt.Errorf("svm: example %d has label %v, want +1 or -1", i, e.Y)
		}
	}
	if pos == 0 || neg == 0 {
		return 0, errOneClass
	}
	return dim, nil
}

// TrainDCD trains an L1-loss linear SVM with dual coordinate descent.
//
//	min_w  ½‖w‖² + C Σ_i max(0, 1 − y_i (w·x_i + b))
//
// The dual variables are swept in random order each pass; the pass loop
// stops when the projected gradients all lie within Tol of optimality.
func TrainDCD(examples []Example, opts Options) (*Model, error) {
	return TrainDCDCtx(context.Background(), examples, opts)
}

// TrainDCDCtx is TrainDCD under a context: cancellation is observed at the
// top of every optimisation pass, so the latency to abort is bounded by one
// sweep over the examples.
//
// The examples are packed once into compressed sparse rows, and every
// update (the diagonal, the margin and the weight step) runs over the
// nonzero features only, so a pass costs the number of nonzeros rather
// than n·dim. The shuffle, the update order and every float expression are
// those of the dense loop; only terms with a zero feature are skipped.
// Such a term is a signed zero, and adding one is exact here: the weights
// and the margin start at +0, and in round-to-nearest a sum is −0 only when
// both addends are, so neither ever holds −0. With finite features (validate
// rejects the rest) and no overflow, the model is therefore bit for bit the
// dense loop's, which oracle_test.go keeps as trainDCDDense.
func TrainDCDCtx(ctx context.Context, examples []Example, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	dim, err := validate(examples)
	if err != nil {
		return nil, err
	}
	n := len(examples)
	aug := dim + 1 // constant bias feature
	x, err := pack(examples)
	if err != nil {
		return nil, err
	}

	// Precompute the diagonal Q_ii = x_i·x_i (augmented).
	qd := make([]float64, n)
	for i := range qd {
		d := 1.0
		for _, v := range x.val[x.start[i]:x.start[i+1]] {
			d += v * v
		}
		qd[i] = d
	}

	w := make([]float64, aug)
	alpha := make([]float64, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	for pass := 0; pass < opts.MaxIter; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		maxPG, minPG := math.Inf(-1), math.Inf(1)
		for _, i := range order {
			lo, hi := x.start[i], x.start[i+1]
			idx, val := x.idx[lo:hi], x.val[lo:hi]
			y := examples[i].Y
			s := w[dim] // bias feature is constant 1
			for k, j := range idx {
				s += w[j] * val[k]
			}
			g := float64(y*s) - 1 // no FMA: the conversion rounds y*s as the dense loop does

			// Projected gradient for the box constraint 0 ≤ α ≤ C.
			pg := g
			if alpha[i] <= 0 && g > 0 {
				pg = 0
			} else if alpha[i] >= opts.C && g < 0 {
				pg = 0
			}
			if pg > maxPG {
				maxPG = pg
			}
			if pg < minPG {
				minPG = pg
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			na := old - g/qd[i]
			if na < 0 {
				na = 0
			} else if na > opts.C {
				na = opts.C
			}
			alpha[i] = na
			delta := (na - old) * y
			if delta != 0 {
				for k, j := range idx {
					w[j] += delta * val[k]
				}
				w[dim] += delta
			}
		}
		if maxPG-minPG < opts.Tol {
			break
		}
	}
	model := &Model{W: w[:dim], Bias: w[dim]}
	return model, nil
}

// csr holds examples' features in compressed sparse rows: example i's
// nonzero features are val[start[i]:start[i+1]], at the feature indices
// idx[start[i]:start[i+1]], in ascending index order.
type csr struct {
	start []int32
	idx   []int32
	val   []float64
}

// pack packs the examples' nonzero features into compressed sparse rows.
func pack(examples []Example) (csr, error) {
	nnz := 0
	for _, e := range examples {
		for _, v := range e.X {
			if v != 0 {
				nnz++
			}
		}
	}
	if nnz > math.MaxInt32 || len(examples[0].X) > math.MaxInt32 {
		return csr{}, fmt.Errorf("svm: %d nonzero features over %d dimensions overflow 32-bit indices", nnz, len(examples[0].X))
	}
	x := csr{
		start: make([]int32, 1, len(examples)+1),
		idx:   make([]int32, 0, nnz),
		val:   make([]float64, 0, nnz),
	}
	for _, e := range examples {
		for j, v := range e.X {
			if v != 0 {
				x.idx = append(x.idx, int32(j))
				x.val = append(x.val, v)
			}
		}
		x.start = append(x.start, int32(len(x.idx)))
	}
	return x, nil
}

// Accuracy returns the fraction of examples the model labels correctly.
func Accuracy(m *Model, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	ok := 0
	for _, e := range examples {
		if m.Predict(e.X) == e.Y {
			ok++
		}
	}
	return float64(ok) / float64(len(examples))
}
