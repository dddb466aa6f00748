package svm

import (
	"math"
	"math/rand"
)

// The package's test oracles: the dense dual coordinate descent loop that
// TrainDCD's sparse loop must equal bit for bit, an independent solver for
// the same objective, and the objective itself, to compare their solutions.

// trainDCDDense is dual coordinate descent over the dense feature vectors:
// TrainDCD before its loop skipped zero features. Every update reads all
// dim features, so a pass costs n·dim. It also returns how many passes ran,
// so the tests can tell a run that met Tol from one that ran out at MaxIter.
func trainDCDDense(examples []Example, opts Options) (*Model, int, error) {
	opts = opts.withDefaults()
	dim, err := validate(examples)
	if err != nil {
		return nil, 0, err
	}
	n := len(examples)
	aug := dim + 1 // constant bias feature

	// Precompute the diagonal Q_ii = x_i·x_i (augmented).
	qd := make([]float64, n)
	for i, e := range examples {
		d := 1.0
		for _, v := range e.X {
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

	dot := func(e *Example) float64 {
		s := w[dim] // bias feature is constant 1
		for j, v := range e.X {
			s += w[j] * v
		}
		return s
	}

	passes := 0
	for passes < opts.MaxIter {
		passes++
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		maxPG, minPG := math.Inf(-1), math.Inf(1)
		for _, i := range order {
			e := &examples[i]
			g := float64(e.Y*dot(e)) - 1

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
			delta := (na - old) * e.Y
			if delta != 0 {
				for j, v := range e.X {
					w[j] += delta * v
				}
				w[dim] += delta
			}
		}
		if maxPG-minPG < opts.Tol {
			break
		}
	}
	return &Model{W: w[:dim], Bias: w[dim]}, passes, nil
}

// TrainPegasos trains the same objective with the Pegasos stochastic
// subgradient method using λ = 1/(C·n), so the solution targets the same
// optimum as TrainDCD.
func TrainPegasos(examples []Example, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	dim, err := validate(examples)
	if err != nil {
		return nil, err
	}
	n := len(examples)
	lambda := 1 / (opts.C * float64(n))
	steps := opts.MaxIter * n

	w := make([]float64, dim+1)
	rng := rand.New(rand.NewSource(opts.Seed))
	for t := 1; t <= steps; t++ {
		i := rng.Intn(n)
		e := &examples[i]
		eta := 1 / (lambda * float64(t))
		s := w[dim]
		for j, v := range e.X {
			s += w[j] * v
		}
		// Scale step: w ← (1 − ηλ)w [+ η y x if margin violated].
		scale := 1 - eta*lambda
		for j := range w {
			w[j] *= scale
		}
		if e.Y*s < 1 {
			f := eta * e.Y
			for j, v := range e.X {
				w[j] += f * v
			}
			w[dim] += f
		}
	}
	return &Model{W: w[:dim], Bias: w[dim]}, nil
}

// Objective returns the primal objective ½‖w‖² + C Σ hinge of the model on
// the examples; the solver tests use it to compare solutions.
func Objective(m *Model, examples []Example, c float64) float64 {
	obj := 0.0
	for _, w := range m.W {
		obj += w * w
	}
	obj += m.Bias * m.Bias
	obj /= 2
	for _, e := range examples {
		h := 1 - e.Y*m.Score(e.X)
		if h > 0 {
			obj += c * h
		}
	}
	return obj
}
