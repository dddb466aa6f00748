package svm

import "math/rand"

// The package's test oracle: an independent solver for TrainDCD's
// objective, and the objective itself, to compare their solutions.

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
