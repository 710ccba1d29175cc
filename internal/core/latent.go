package core

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Latent is the paper's latent fractional sample L = (A, π, C)
// (Section 4.1): a set A of ⌊C⌋ "full" items that belong to every realized
// sample, at most one "partial" item π that belongs to a realized sample
// with probability frac(C), and the real-valued sample weight C ≥ 0. The
// invariant |π| = 1 ⇔ frac(C) > 0 is maintained by every operation, so the
// memory footprint never exceeds ⌊C⌋ + 1 items.
type Latent[T any] struct {
	full    []T
	partial []T // 0 or 1 elements
	weight  float64
}

// NewLatent returns a latent sample containing the given items as full
// items, with weight len(items). The slice is copied. The one-slot partial
// buffer is pre-allocated so that swap1/move1 never allocate, keeping the
// steady-state Advance path allocation-free.
func NewLatent[T any](items []T) *Latent[T] {
	l := &Latent[T]{weight: float64(len(items)), partial: make([]T, 0, 1)}
	l.full = append(l.full, items...)
	return l
}

// Weight returns the sample weight C, which is also the expected size of a
// realized sample (equation (3)).
func (l *Latent[T]) Weight() float64 { return l.weight }

// NumFull returns |A| = ⌊C⌋.
func (l *Latent[T]) NumFull() int { return len(l.full) }

// HasPartial reports whether a partial item is present.
func (l *Latent[T]) HasPartial() bool { return len(l.partial) == 1 }

// Footprint returns the number of items physically stored, |A ∪ π|.
func (l *Latent[T]) Footprint() int { return len(l.full) + len(l.partial) }

// Full returns the underlying full-item slice. The caller must not modify
// it; it is exposed for zero-copy iteration by models that retrain on the
// sample.
func (l *Latent[T]) Full() []T { return l.full }

// Realize returns the sample S realized from the latent state according to
// equation (2): every full item, and the partial item with probability
// frac(C) by a coin that is a pure function of the RNG state
// (rng.StateFloat64), so Realize changes nothing. The slice is a fresh copy.
func (l *Latent[T]) Realize(rng *xrand.RNG) []T {
	return l.AppendRealize(rng, make([]T, 0, l.Footprint()))
}

// AppendRealize is Realize into a caller-owned buffer: the realized sample
// is appended to dst and the extended slice returned. A caller that reuses
// the returned slice (dst = l.AppendRealize(rng, dst[:0])) realizes without
// allocating once the buffer has grown to the sample footprint — the
// append-side half of the zero-allocation ingest path. It realizes exactly
// what Realize does.
//
//tbs:zeroalloc
func (l *Latent[T]) AppendRealize(rng *xrand.RNG, dst []T) []T {
	dst = append(dst, l.full...)
	if len(l.partial) == 1 && rng.StateFloat64() < frac(l.weight) {
		dst = append(dst, l.partial[0])
	}
	return dst
}

// appendFull adds items to A with weight 1 each, increasing C by len(items).
// It implements the "accept all items in Bₜ" steps of Algorithm 2 (lines 9
// and 20).
//
//tbs:zeroalloc
func (l *Latent[T]) appendFull(items []T) {
	l.full = append(l.full, items...)
	l.weight += float64(len(items))
}

// swap1 moves a random full item to π and moves the current partial item
// (if any) into A — the Swap1(A, π) subroutine of Algorithm 3.
//
//tbs:zeroalloc
func (l *Latent[T]) swap1(rng *xrand.RNG) {
	if len(l.full) == 0 {
		return
	}
	i := rng.Intn(len(l.full))
	picked := l.full[i]
	if len(l.partial) == 1 {
		l.full[i] = l.partial[0]
		l.partial[0] = picked
	} else {
		last := len(l.full) - 1
		l.full[i] = l.full[last]
		l.full = l.full[:last]
		l.partial = append(l.partial, picked)
	}
}

// move1 moves a random full item to π, replacing the current partial item —
// the Move1(A, π) subroutine of Algorithm 3.
//
//tbs:zeroalloc
func (l *Latent[T]) move1(rng *xrand.RNG) {
	if len(l.full) == 0 {
		return
	}
	i := rng.Intn(len(l.full))
	picked := l.full[i]
	last := len(l.full) - 1
	l.full[i] = l.full[last]
	l.full = l.full[:last]
	if len(l.partial) == 1 {
		l.partial[0] = picked
	} else {
		l.partial = append(l.partial, picked)
	}
}

// retainFull keeps a uniform random subset of m full items, discarding the
// rest — Sample(A, m) used as the new A.
func (l *Latent[T]) retainFull(rng *xrand.RNG, m int) {
	l.full = xrand.SampleInPlace(rng, l.full, m)
}

// Downsample reduces the latent sample's weight from C to target, scaling
// every item's inclusion probability by exactly target/C — Algorithm 3 of
// the paper (Theorem 4.1). It requires 0 ≤ target ≤ C; target = C is a
// no-op and target = 0 empties the sample.
func (l *Latent[T]) Downsample(rng *xrand.RNG, target float64) {
	c := l.weight
	switch {
	case target < 0 || target > c || math.IsNaN(target):
		panic(fmt.Sprintf("core: Downsample target %v out of range [0, %v]", target, c))
	case target == c:
		return
	case target == 0:
		l.full = l.full[:0]
		l.partial = l.partial[:0]
		l.weight = 0
		return
	}

	u := rng.Float64()
	floorT := math.Floor(target)
	floorC := math.Floor(c)
	switch {
	case floorT == 0:
		// No full items retained (lines 5–8): the surviving partial item of
		// L′ is the old partial with probability frac(C)/C, otherwise a
		// uniformly chosen full item.
		if u > frac(c)/c {
			l.swap1(rng)
		}
		l.full = l.full[:0]
	case floorT == floorC:
		// No items deleted (lines 9–11): with probability 1 − ρ the partial
		// item is promoted to full and a random full item becomes partial.
		rho := (1 - (target/c)*frac(c)) / (1 - frac(target))
		if u > rho {
			l.swap1(rng)
		}
	default:
		// Items deleted, 0 < ⌊C′⌋ < ⌊C⌋ (lines 12–18). The first branch can
		// only retain an existing partial item, hence the HasPartial guard
		// (it fires with probability frac(C)·C′/C, which is 0 when π = ∅).
		if l.HasPartial() && u <= (target/c)*frac(c) {
			// Retain the old partial item by promoting it to full.
			l.retainFull(rng, int(floorT))
			l.swap1(rng)
		} else {
			// Eject the old partial; a retained full item becomes partial.
			l.retainFull(rng, int(floorT)+1)
			l.move1(rng)
		}
	}
	if target == floorT {
		// No fractional mass remains (lines 19–20).
		l.partial = l.partial[:0]
	}
	l.weight = target
}
