package tbs

import "sync"

// Concurrent makes a Sampler safe for concurrent use behind one RWMutex,
// so a sampler can sit behind request handlers: writers call Advance as
// batches arrive while readers call Sample and ExpectedSize, and a
// checkpointing goroutine calls Snapshot — all without external locking.
// Read paths (Sample, AppendSample, ExpectedSize, Scheme, and the Weight,
// Now and InclusionProbability helpers) take the read lock and run
// concurrently with each other; Advance, AdvanceAt and Snapshot are
// exclusive. Sharing the read lock relies on Sampler.Sample changing no
// state, which every implementation must honour.
type Concurrent[T any] struct {
	mu sync.RWMutex
	s  Sampler[T]
}

// NewConcurrent wraps s in a Concurrent. Wrapping an existing Concurrent
// returns it unchanged.
func NewConcurrent[T any](s Sampler[T]) *Concurrent[T] {
	if c, ok := s.(*Concurrent[T]); ok {
		return c
	}
	return &Concurrent[T]{s: s}
}

// Advance implements Sampler.
func (c *Concurrent[T]) Advance(batch []T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Advance(batch)
}

// Sample implements Sampler. It holds only the read lock, so concurrent
// readers do not serialize.
func (c *Concurrent[T]) Sample() []T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.Sample()
}

// AppendSample realizes the current sample into a caller-owned buffer (see
// tbs.AppendSample) under the read lock, so concurrent readers each fill
// their own buffer without serializing — and, unlike Sample, without a
// fresh allocation per call once the buffer has grown to the sample size.
func (c *Concurrent[T]) AppendSample(dst []T) []T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.s.(extended[T]); ok {
		if out, ok2 := e.appendSampleCap(dst); ok2 {
			return out
		}
	}
	return append(dst, c.s.Sample()...)
}

func (c *Concurrent[T]) appendSampleCap(dst []T) ([]T, bool) {
	return c.AppendSample(dst), true
}

// ExpectedSize implements Sampler.
func (c *Concurrent[T]) ExpectedSize() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.ExpectedSize()
}

// Scheme implements Sampler.
func (c *Concurrent[T]) Scheme() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.s.Scheme()
}

// Snapshot implements Sampler. The snapshot is atomic with respect to
// concurrent Advance and Sample calls.
func (c *Concurrent[T]) Snapshot() (Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Snapshot()
}

func (c *Concurrent[T]) weightCap() (float64, float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.s.(extended[T]); ok {
		return e.weightCap()
	}
	return 0, 0, false
}

func (c *Concurrent[T]) advanceAtCap(t float64, batch []T) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.s.(extended[T]); ok {
		return e.advanceAtCap(t, batch)
	}
	return false
}

func (c *Concurrent[T]) nowCap() (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.s.(extended[T]); ok {
		return e.nowCap()
	}
	return 0, false
}

func (c *Concurrent[T]) inclusionCap(arrival float64) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if e, ok := c.s.(extended[T]); ok {
		return e.inclusionCap(arrival)
	}
	return 0, false
}
