package datagen

import (
	"fmt"

	"repro/internal/xrand"
)

// Doc is one message of the text stream: a bag of word identifiers and a
// binary label (1 = the simulated user finds it interesting).
type Doc struct {
	Words []int
	Label int
}

// Text generates a recurring-context message stream that stands in for the
// Usenet2 dataset of Katakis et al. used in Section 6.4 (the real dataset —
// 1500 messages from the 20 Newsgroups collection with the simulated user's
// interest flipping every 300 messages — is not redistributable, so we
// synthesize a stream with the same structure; see the Figure 13 note in
// EXPERIMENTS.md).
//
// Messages are drawn from NumTopics topic-conditional word distributions
// over a shared vocabulary: each topic owns TopicWords characteristic words
// and all topics share CommonWords background words. A message from topic k
// mixes characteristic and background words; its label is 1 exactly when k
// is the topic the user currently cares about, and the user's interest
// cycles to the next topic every FlipEvery messages — recreating the
// recurring contexts that defeat sliding windows.
type Text struct {
	NumTopics   int
	TopicWords  int
	CommonWords int
	MeanLength  float64
	TopicBias   float64 // probability a word is topic-characteristic
	FlipEvery   int

	rng      *xrand.RNG
	msgCount int
}

// TextConfig collects the parameters; zero values give 3 topics, 150
// characteristic words each, 300 common words, mean length 40, bias 0.35,
// and an interest flip every 300 messages as in the paper. Three topics
// (rather than two) keep a fraction of the labels stable across an interest
// flip, matching the partial concept drift of the real dataset.
type TextConfig struct {
	NumTopics   int
	TopicWords  int
	CommonWords int
	MeanLength  float64
	TopicBias   float64
	FlipEvery   int
}

// NewText returns the stream generator.
func NewText(cfg TextConfig, rng *xrand.RNG) (*Text, error) {
	if rng == nil {
		return nil, fmt.Errorf("datagen: nil RNG")
	}
	if cfg.NumTopics == 0 {
		cfg.NumTopics = 3
	}
	if cfg.TopicWords == 0 {
		cfg.TopicWords = 150
	}
	if cfg.CommonWords == 0 {
		cfg.CommonWords = 300
	}
	if cfg.MeanLength == 0 {
		cfg.MeanLength = 40
	}
	if cfg.TopicBias == 0 {
		cfg.TopicBias = 0.35
	}
	if cfg.FlipEvery == 0 {
		cfg.FlipEvery = 300
	}
	if cfg.NumTopics < 2 || cfg.TopicWords < 1 || cfg.CommonWords < 0 ||
		cfg.MeanLength <= 0 || cfg.TopicBias <= 0 || cfg.TopicBias > 1 || cfg.FlipEvery < 1 {
		return nil, fmt.Errorf("datagen: invalid text config %+v", cfg)
	}
	return &Text{
		NumTopics:   cfg.NumTopics,
		TopicWords:  cfg.TopicWords,
		CommonWords: cfg.CommonWords,
		MeanLength:  cfg.MeanLength,
		TopicBias:   cfg.TopicBias,
		FlipEvery:   cfg.FlipEvery,
		rng:         rng,
	}, nil
}

// VocabSize returns the total number of distinct word identifiers.
func (g *Text) VocabSize() int { return g.NumTopics*g.TopicWords + g.CommonWords }

// InterestAt returns the topic the user is interested in for the i-th
// message of the stream (0-based).
func (g *Text) InterestAt(i int) int { return (i / g.FlipEvery) % g.NumTopics }

// Batch generates the next size messages (the time step is implicit: the
// generator counts messages, matching the dataset's per-message interest
// schedule).
func (g *Text) Batch(_, size int) []Doc {
	out := make([]Doc, size)
	for i := range out {
		out[i] = g.message()
	}
	return out
}

// message draws one labelled message and advances the message counter.
func (g *Text) message() Doc {
	interest := g.InterestAt(g.msgCount)
	g.msgCount++
	topic := g.rng.Intn(g.NumTopics)
	length := g.rng.Poisson(g.MeanLength)
	if length < 5 {
		length = 5
	}
	words := make([]int, length)
	for j := range words {
		if g.rng.Bernoulli(g.TopicBias) {
			// Topic-characteristic word: ids [topic·TopicWords, (topic+1)·TopicWords).
			words[j] = topic*g.TopicWords + g.rng.Intn(g.TopicWords)
		} else {
			// Background word shared by all topics.
			words[j] = g.NumTopics*g.TopicWords + g.rng.Intn(g.CommonWords)
		}
	}
	label := 0
	if topic == interest {
		label = 1
	}
	return Doc{Words: words, Label: label}
}
