// Package hmm implements a discrete-observation hidden Markov model with
// Baum-Welch training and scaled forward-algorithm scoring.
//
// The paper's §VI-B names HMMs as future work for capturing causal
// relations between events dispersed in the log (following Warrender et
// al. and Gao et al.). This package provides that extension: one HMM is
// trained per class over discretised event-symbol sequences, and windows
// are classified by log-likelihood ratio (see Classifier).
package hmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Model is a discrete HMM with N hidden states and M observation symbols.
type Model struct {
	// Pi is the initial state distribution (N).
	Pi []float64
	// A is the state transition matrix (N×N), A[i][j] = P(j | i).
	A [][]float64
	// B is the emission matrix (N×M), B[i][k] = P(symbol k | state i).
	B [][]float64
}

// NumStates returns N.
func (m *Model) NumStates() int { return len(m.Pi) }

// NumSymbols returns M.
func (m *Model) NumSymbols() int {
	if len(m.B) == 0 {
		return 0
	}
	return len(m.B[0])
}

// Config controls training.
type Config struct {
	// States is the number of hidden states (default 4).
	States int
	// Seed initialises the random parameter start.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.States == 0 {
		c.States = 4
	}
	return c
}

// Baum-Welch runs at most maxIter iterations and stops early once the
// per-symbol log-likelihood improves by less than tol.
const (
	maxIter = 30
	tol     = 1e-4
)

// smoothing is the additive floor keeping probabilities non-zero so
// unseen symbols cannot produce -Inf likelihoods.
const smoothing = 1e-6

// Train fits a model to the observation sequence with Baum-Welch. symbols
// must lie in [0, numSymbols).
func Train(seq []int, numSymbols int, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if numSymbols < 1 {
		return nil, fmt.Errorf("hmm: numSymbols %d must be positive", numSymbols)
	}
	if len(seq) < 2 {
		return nil, errors.New("hmm: sequence too short to train on")
	}
	for i, s := range seq {
		if s < 0 || s >= numSymbols {
			return nil, fmt.Errorf("hmm: symbol %d at position %d out of [0,%d)", s, i, numSymbols)
		}
	}

	m := randomModel(cfg.States, numSymbols, rand.New(rand.NewSource(cfg.Seed)))
	prev := math.Inf(-1)
	for iter := 0; iter < maxIter; iter++ {
		ll := m.baumWelchStep(seq)
		if ll-prev < tol*float64(len(seq)) && iter > 0 {
			break
		}
		prev = ll
	}
	return m, nil
}

// randomModel initialises near-uniform parameters with random jitter
// (exact uniformity is a Baum-Welch fixed point).
func randomModel(n, mSyms int, rng *rand.Rand) *Model {
	m := &Model{
		Pi: make([]float64, n),
		A:  make([][]float64, n),
		B:  make([][]float64, n),
	}
	randRow := func(k int) []float64 {
		row := make([]float64, k)
		var sum float64
		for i := range row {
			row[i] = 1 + 0.2*rng.Float64()
			sum += row[i]
		}
		for i := range row {
			row[i] /= sum
		}
		return row
	}
	copy(m.Pi, randRow(n))
	for i := 0; i < n; i++ {
		m.A[i] = randRow(n)
		m.B[i] = randRow(mSyms)
	}
	return m
}

// forwardScaled runs the scaled forward algorithm, returning the scaled
// alpha matrix, the per-step scale factors and the sequence
// log-likelihood.
func (m *Model) forwardScaled(seq []int) (alpha [][]float64, scale []float64, ll float64) {
	n, T := m.NumStates(), len(seq)
	alpha = make([][]float64, T)
	scale = make([]float64, T)
	alpha[0] = make([]float64, n)
	for i := 0; i < n; i++ {
		alpha[0][i] = m.Pi[i] * m.B[i][seq[0]]
		scale[0] += alpha[0][i]
	}
	if scale[0] == 0 {
		scale[0] = smoothing
	}
	for i := 0; i < n; i++ {
		alpha[0][i] /= scale[0]
	}
	for t := 1; t < T; t++ {
		alpha[t] = make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += alpha[t-1][i] * m.A[i][j]
			}
			alpha[t][j] = s * m.B[j][seq[t]]
			scale[t] += alpha[t][j]
		}
		if scale[t] == 0 {
			scale[t] = smoothing
		}
		for j := 0; j < n; j++ {
			alpha[t][j] /= scale[t]
		}
	}
	for t := 0; t < T; t++ {
		ll += math.Log(scale[t])
	}
	return alpha, scale, ll
}

// backwardScaled runs the scaled backward algorithm with the forward
// pass's scale factors.
func (m *Model) backwardScaled(seq []int, scale []float64) [][]float64 {
	n, T := m.NumStates(), len(seq)
	beta := make([][]float64, T)
	beta[T-1] = make([]float64, n)
	for i := 0; i < n; i++ {
		beta[T-1][i] = 1 / scale[T-1]
	}
	for t := T - 2; t >= 0; t-- {
		beta[t] = make([]float64, n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += m.A[i][j] * m.B[j][seq[t+1]] * beta[t+1][j]
			}
			beta[t][i] = s / scale[t]
		}
	}
	return beta
}

// baumWelchStep performs one EM iteration in place and returns the
// log-likelihood under the pre-update parameters.
func (m *Model) baumWelchStep(seq []int) float64 {
	n, mSyms, T := m.NumStates(), m.NumSymbols(), len(seq)
	alpha, scale, ll := m.forwardScaled(seq)
	beta := m.backwardScaled(seq, scale)

	// gamma[t][i] ∝ alpha[t][i]·beta[t][i]; xi aggregated directly into
	// the transition numerators.
	gammaSum := make([]float64, n)      // Σ_{t<T-1} gamma[t][i]
	gammaSymbol := make([][]float64, n) // Σ_t gamma[t][i]·[seq[t]==k]
	gammaTotal := make([]float64, n)    // Σ_t gamma[t][i]
	transNum := make([][]float64, n)    // Σ_t xi[t][i][j]
	for i := 0; i < n; i++ {
		gammaSymbol[i] = make([]float64, mSyms)
		transNum[i] = make([]float64, n)
	}
	for t := 0; t < T; t++ {
		var norm float64
		g := make([]float64, n)
		for i := 0; i < n; i++ {
			g[i] = alpha[t][i] * beta[t][i]
			norm += g[i]
		}
		if norm == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			g[i] /= norm
			gammaTotal[i] += g[i]
			gammaSymbol[i][seq[t]] += g[i]
			if t < T-1 {
				gammaSum[i] += g[i]
			}
		}
		if t == 0 {
			copy(m.Pi, g)
		}
		if t < T-1 {
			var xiNorm float64
			xi := make([][]float64, n)
			for i := 0; i < n; i++ {
				xi[i] = make([]float64, n)
				for j := 0; j < n; j++ {
					xi[i][j] = alpha[t][i] * m.A[i][j] * m.B[j][seq[t+1]] * beta[t+1][j]
					xiNorm += xi[i][j]
				}
			}
			if xiNorm > 0 {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						transNum[i][j] += xi[i][j] / xiNorm
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.A[i][j] = (transNum[i][j] + smoothing) / (gammaSum[i] + float64(n)*smoothing)
		}
		for k := 0; k < mSyms; k++ {
			m.B[i][k] = (gammaSymbol[i][k] + smoothing) / (gammaTotal[i] + float64(mSyms)*smoothing)
		}
	}
	return ll
}

// LogLikelihood scores a sequence under the model.
func (m *Model) LogLikelihood(seq []int) (float64, error) {
	if len(seq) == 0 {
		return 0, errors.New("hmm: empty sequence")
	}
	for i, s := range seq {
		if s < 0 || s >= m.NumSymbols() {
			return 0, fmt.Errorf("hmm: symbol %d at position %d out of range", s, i)
		}
	}
	_, _, ll := m.forwardScaled(seq)
	return ll, nil
}

// Classifier is a two-class sequence classifier: one HMM per class,
// deciding by log-likelihood ratio.
type Classifier struct {
	Benign    *Model
	Malicious *Model
}

// TrainClassifier fits the benign model on the benign symbol sequence and
// the malicious model on the mixed sequence.
func TrainClassifier(benignSeq, mixedSeq []int, numSymbols int, cfg Config) (*Classifier, error) {
	b, err := Train(benignSeq, numSymbols, cfg)
	if err != nil {
		return nil, fmt.Errorf("hmm: benign model: %w", err)
	}
	malCfg := cfg
	malCfg.Seed = cfg.Seed + 1
	m, err := Train(mixedSeq, numSymbols, malCfg)
	if err != nil {
		return nil, fmt.Errorf("hmm: malicious model: %w", err)
	}
	return &Classifier{Benign: b, Malicious: m}, nil
}

// Score returns the benign-minus-malicious log-likelihood ratio of the
// window; positive favours benign.
func (c *Classifier) Score(window []int) (float64, error) {
	lb, err := c.Benign.LogLikelihood(window)
	if err != nil {
		return 0, err
	}
	lm, err := c.Malicious.LogLikelihood(window)
	if err != nil {
		return 0, err
	}
	return lb - lm, nil
}

// PredictBenign classifies a window: true when the benign model explains
// it at least as well as the malicious model.
func (c *Classifier) PredictBenign(window []int) (bool, error) {
	s, err := c.Score(window)
	if err != nil {
		return false, err
	}
	return s >= 0, nil
}
