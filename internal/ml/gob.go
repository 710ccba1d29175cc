package ml

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// This file makes the three learners gob-encodable so a deployed model can
// ride inside a server checkpoint and answer predictions again after a
// restart without retraining (training is deterministic, but the sample it
// would retrain from has moved on — the restored process must serve the
// *same* model it served before the kill). Each model round-trips through
// an exported snapshot struct; the structs are versioned implicitly by gob
// field matching, and Decode validates the same invariants the
// constructors enforce.

// knnGob is the wire form of KNN.
type knnGob struct {
	K  int
	Xs [][]float64
	Ys []int
}

// GobEncode implements gob.GobEncoder.
func (m *KNN) GobEncode() ([]byte, error) {
	return gobEncode(knnGob{K: m.k, Xs: m.xs, Ys: m.ys})
}

// GobDecode implements gob.GobDecoder.
func (m *KNN) GobDecode(data []byte) error {
	var g knnGob
	if err := gobDecode(data, &g); err != nil {
		return fmt.Errorf("ml: KNN: %w", err)
	}
	if g.K < 1 {
		return fmt.Errorf("ml: KNN: decoded k %d out of range", g.K)
	}
	if len(g.Xs) != len(g.Ys) {
		return fmt.Errorf("ml: KNN: decoded %d points with %d labels", len(g.Xs), len(g.Ys))
	}
	m.k = g.K
	return m.Fit(g.Xs, g.Ys) // rebuilds the index; the gob stores only the training set
}

// linregGob is the wire form of LinearRegression.
type linregGob struct {
	Coef      []float64
	Intercept float64
	HasIcept  bool
}

// GobEncode implements gob.GobEncoder.
func (m *LinearRegression) GobEncode() ([]byte, error) {
	return gobEncode(linregGob{Coef: m.Coef, Intercept: m.Intercept, HasIcept: m.hasIcept})
}

// GobDecode implements gob.GobDecoder.
func (m *LinearRegression) GobDecode(data []byte) error {
	var g linregGob
	if err := gobDecode(data, &g); err != nil {
		return fmt.Errorf("ml: LinearRegression: %w", err)
	}
	if len(g.Coef) == 0 {
		return fmt.Errorf("ml: LinearRegression: decoded model has no coefficients")
	}
	m.Coef, m.Intercept, m.hasIcept = g.Coef, g.Intercept, g.HasIcept
	return nil
}

// nbGob is the wire form of NaiveBayes.
type nbGob struct {
	NumClasses int
	Vocab      int
	Alpha      float64
	LogPrior   []float64
	LogCond    [][]float64
}

// GobEncode implements gob.GobEncoder.
func (m *NaiveBayes) GobEncode() ([]byte, error) {
	return gobEncode(nbGob{
		NumClasses: m.numClasses, Vocab: m.vocab, Alpha: m.alpha,
		LogPrior: m.logPrior, LogCond: m.logCond,
	})
}

// GobDecode implements gob.GobDecoder.
func (m *NaiveBayes) GobDecode(data []byte) error {
	var g nbGob
	if err := gobDecode(data, &g); err != nil {
		return fmt.Errorf("ml: NaiveBayes: %w", err)
	}
	if g.NumClasses < 2 || g.Vocab < 1 {
		return fmt.Errorf("ml: NaiveBayes: decoded shape %d classes × %d words out of range", g.NumClasses, g.Vocab)
	}
	if len(g.LogPrior) != g.NumClasses || len(g.LogCond) != g.NumClasses {
		return fmt.Errorf("ml: NaiveBayes: decoded tables do not match %d classes", g.NumClasses)
	}
	for c, row := range g.LogCond {
		if len(row) != g.Vocab {
			return fmt.Errorf("ml: NaiveBayes: class %d conditional table has %d entries, want %d", c, len(row), g.Vocab)
		}
	}
	m.numClasses, m.vocab, m.alpha = g.NumClasses, g.Vocab, g.Alpha
	m.logPrior, m.logCond = g.LogPrior, g.LogCond
	return nil
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
