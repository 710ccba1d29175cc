// Package ml implements the three supervised models the paper retrains on
// temporally-biased samples (Section 6): a kNN classifier, ordinary
// least-squares linear regression, and a multinomial Naive Bayes text
// classifier. The implementations are deliberately self-contained — the
// whole point of the sampling-based approach is that static, off-the-shelf
// learners can be reused on streams without re-engineering.
package ml

import (
	"fmt"
	"math"
)

// KNN is a k-nearest-neighbour classifier over d-dimensional points with
// Euclidean distance and majority vote (Section 6.2, k = 7 in the paper).
// Fit stores the training set and, for 2-D training sets, builds a
// uniform-grid index; Predict answers from the index when the query lies
// inside it and scans the whole set otherwise. Both paths rank
// candidates by (squared distance, training index) with the same
// distance function, so they return the same class bit for bit.
type KNN struct {
	k    int
	xs   [][]float64
	ys   []int
	grid *knnGrid // nil: Predict always scans
}

// NewKNN returns a classifier using the k nearest neighbours.
func NewKNN(k int) (*KNN, error) {
	if k < 1 {
		return nil, fmt.Errorf("ml: k must be positive, got %d", k)
	}
	return &KNN{k: k}, nil
}

// Fit replaces the training set. The slices are retained (not copied); they
// must not be mutated while the model is in use, and must have equal length.
// Fit also rebuilds the grid index, which holds its own copy of the
// coordinates.
func (m *KNN) Fit(xs [][]float64, ys []int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("ml: KNN.Fit length mismatch: %d points, %d labels", len(xs), len(ys))
	}
	m.xs, m.ys = xs, ys
	m.grid = nil
	if len(xs) > 4*m.k {
		// Tiny training sets stay on the scan: it is both faster and
		// simpler there.
		m.grid = newKNNGrid(xs)
	}
	return nil
}

// TrainSize returns the number of stored training points.
func (m *KNN) TrainSize() int { return len(m.xs) }

// maxStackK bounds the neighbour count whose candidate list lives on the
// stack; larger k allocates it per query.
const maxStackK = 16

// Predict returns the majority class among the k nearest training points,
// or -1 if the model has no training data. Ties are broken in favour of the
// nearer neighbour set (the class whose closest member is nearest).
func (m *KNN) Predict(x []float64) int {
	if len(m.xs) == 0 {
		return -1
	}
	k := m.k
	if k > len(m.xs) {
		k = len(m.xs)
	}
	var dbuf [maxStackK]float64
	var ibuf [maxStackK]int
	nb := nearest{d: dbuf[:], idx: ibuf[:]}
	if k > maxStackK {
		nb.d, nb.idx = make([]float64, k), make([]int, k)
	}
	nb.d, nb.idx = nb.d[:k], nb.idx[:k]
	if g := m.grid; g != nil && g.covers(x) {
		g.search(x, &nb)
	} else {
		for i, p := range m.xs {
			nb.offer(sqDist(x, p), i)
		}
	}
	return nb.vote(m.ys)
}

// nearest is the bounded candidate list of one query: the k = len(d)
// best (squared distance, training index) pairs seen so far, in
// ascending order, of which the first n are filled. The index tiebreak
// makes the list independent of the order in which candidates are
// offered, which is what lets the grid visit points cell by cell and
// still agree with the scan.
type nearest struct {
	d   []float64
	idx []int
	n   int
}

// after reports whether candidate (d, i) ranks after (e, j). It is
// written so that a NaN distance, which the scan can meet on non-finite
// input, is placed exactly as the plain distance insertion sort always
// placed it.
func after(d float64, i int, e float64, j int) bool { return d > e || d == e && i > j }

// offer inserts candidate (d, i) if it ranks among the k best.
func (nb *nearest) offer(d float64, i int) {
	k := len(nb.d)
	if nb.n == k && after(d, i, nb.d[k-1], nb.idx[k-1]) {
		return
	}
	j := nb.n
	if j < k {
		nb.n++
	} else {
		j = k - 1
	}
	for j > 0 && after(nb.d[j-1], nb.idx[j-1], d, i) {
		nb.d[j], nb.idx[j] = nb.d[j-1], nb.idx[j-1]
		j--
	}
	nb.d[j], nb.idx[j] = d, i
}

// vote returns the majority label among the candidates; ties go to the
// label whose first occurrence in the distance-sorted list comes first.
func (nb *nearest) vote(ys []int) int {
	best, bestVotes := ys[nb.idx[0]], 0
	for i, ci := range nb.idx[:nb.n] {
		lbl, votes := ys[ci], 1
		for _, cj := range nb.idx[:i] {
			if ys[cj] == lbl {
				votes++
			}
		}
		if votes > bestVotes {
			best, bestVotes = lbl, votes
		}
	}
	return best
}

// knnGrid is a uniform-grid index over a 2-D training set, stored flat:
// the points of cell c are entries start[c] to start[c+1] of order (their
// training indices, ascending) and of pts (their coordinates, two per
// point), so a search reads contiguous memory.
type knnGrid struct {
	minX, minY, maxX, maxY float64
	cell                   float64
	nx, ny                 int
	start                  []int32
	order                  []int32
	pts                    []float64
}

// newKNNGrid indexes xs, or returns nil when the set does not qualify:
// every point must have exactly 2 finite coordinates, and the squared
// diagonal of the bounding box must be finite, so that every distance
// between points of the box is finite and search's pruning bound holds.
func newKNNGrid(xs [][]float64) *knnGrid {
	if len(xs) > math.MaxInt32/2 {
		return nil
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range xs {
		if len(p) != 2 || math.IsInf(p[0], 0) || math.IsNaN(p[0]) || math.IsInf(p[1], 0) || math.IsNaN(p[1]) {
			return nil
		}
		minX, maxX = math.Min(minX, p[0]), math.Max(maxX, p[0])
		minY, maxY = math.Min(minY, p[1]), math.Max(maxY, p[1])
	}
	w, h := maxX-minX, maxY-minY
	if math.IsInf(w*w+h*h, 0) {
		return nil
	}
	// Aim for ~2 points per cell: cell² = 2·area/n, computed as a product
	// of square roots so a wide box cannot overflow it. The second term
	// covers degenerate boxes (collinear points), and the third keeps the
	// cell large against the coordinates' rounding, which the pruning
	// bound in search relies on.
	n := float64(len(xs))
	maxAbs := math.Max(math.Max(math.Abs(minX), math.Abs(maxX)), math.Max(math.Abs(minY), math.Abs(maxY)))
	cell := math.Max(math.Sqrt(2/n)*math.Sqrt(w)*math.Sqrt(h), 2*math.Max(w, h)/n)
	cell = math.Max(cell, maxAbs*0x1p-30)
	if cell < 0x1p-500 {
		// Squared distances at cell scale would be subnormal (or the
		// points all coincide at the origin); the bound needs them normal.
		return nil
	}
	g := &knnGrid{minX: minX, minY: minY, maxX: maxX, maxY: maxY, cell: cell}
	// With these bounds nx·ny ≤ 1.5n+1, so the cell table stays linear.
	g.nx, g.ny = int(w/cell)+1, int(h/cell)+1
	g.start = make([]int32, g.nx*g.ny+1)
	cells := make([]int32, len(xs))
	for i, p := range xs {
		c := int32(g.cellOf(p[0], p[1]))
		cells[i] = c
		g.start[c+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.order = make([]int32, len(xs))
	g.pts = make([]float64, 2*len(xs))
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i, p := range xs {
		o := next[cells[i]]
		next[cells[i]]++
		g.order[o] = int32(i)
		g.pts[2*o], g.pts[2*o+1] = p[0], p[1]
	}
	return g
}

// axisCell maps a coordinate v ≥ lo to its cell along one axis, clamping
// to the last of n cells. It is monotone in v, which the pruning bound
// relies on.
func axisCell(v, lo, cell float64, n int) int {
	c := int((v - lo) / cell)
	if c >= n {
		c = n - 1
	}
	return c
}

func (g *knnGrid) cellOf(x, y float64) int {
	return axisCell(y, g.minY, g.cell, g.ny)*g.nx + axisCell(x, g.minX, g.cell, g.nx)
}

// covers reports whether the index answers q: a 2-D query inside the
// training points' bounding box (which also excludes NaN and ±Inf).
// Other queries take the scan.
func (g *knnGrid) covers(q []float64) bool {
	return len(q) == 2 && q[0] >= g.minX && q[0] <= g.maxX && q[1] >= g.minY && q[1] <= g.maxY
}

// search offers nb every training point in rings of cells around q's
// cell, nearest ring first, and stops once no unvisited point can rank
// among the k best.
//
// Pruning bound: after rings 0…r, an unvisited point's cell is at least
// r+1 cells from q's along some axis. Cell assignment is monotone in the
// coordinate, so the point's exact distance from q exceeds r·cell minus
// rounding of order 2⁻²⁰·cell (newKNNGrid keeps the cell above 2⁻³⁰ of
// the largest coordinate and n below 2³⁰). Stopping once
// ((r-½)·cell)² exceeds the k-th best squared distance leaves half a
// cell of slack for that and for rounding in the distance itself, so
// every unvisited point's computed distance ranks strictly after the
// k-th candidate and the result is the scan's.
func (g *knnGrid) search(q []float64, nb *nearest) {
	qcx := axisCell(q[0], g.minX, g.cell, g.nx)
	qcy := axisCell(q[1], g.minY, g.cell, g.ny)
	maxRing := max(qcx, g.nx-1-qcx, qcy, g.ny-1-qcy)
	for r := 0; r <= maxRing; r++ {
		x0, x1 := max(qcx-r, 0), min(qcx+r, g.nx-1)
		// Top and bottom rows of the ring: each a contiguous cell run.
		for _, cy := range [2]int{qcy - r, qcy + r} {
			if cy >= 0 && cy < g.ny {
				g.offerCells(q, nb, cy*g.nx+x0, cy*g.nx+x1)
			}
			if r == 0 {
				break
			}
		}
		// Left and right columns, without the corners.
		for cy := max(qcy-r+1, 0); cy <= min(qcy+r-1, g.ny-1); cy++ {
			if cx := qcx - r; cx >= 0 {
				g.offerCells(q, nb, cy*g.nx+cx, cy*g.nx+cx)
			}
			if cx := qcx + r; cx < g.nx {
				g.offerCells(q, nb, cy*g.nx+cx, cy*g.nx+cx)
			}
		}
		if k := len(nb.d); nb.n == k && r > 0 {
			if lb := (float64(r) - 0.5) * g.cell; lb*lb > nb.d[k-1] {
				return
			}
		}
	}
}

// offerCells offers every point of the cells c0…c1, which are stored
// contiguously.
func (g *knnGrid) offerCells(q []float64, nb *nearest, c0, c1 int) {
	qx, qy := q[0], q[1]
	for o := g.start[c0]; o < g.start[c1+1]; o++ {
		nb.offer(sqDist2(qx, qy, g.pts[2*o], g.pts[2*o+1]), int(g.order[o]))
	}
}

// sqDist returns the squared Euclidean distance, treating missing trailing
// coordinates as zero. Two 2-D points go through sqDist2, the distance
// the grid search uses, so both Predict paths round alike. The explicit
// float64 conversions forbid fused multiply-adds, which would round
// differently on some architectures.
func sqDist(a, b []float64) float64 {
	if len(a) == 2 && len(b) == 2 {
		return sqDist2(a[0], a[1], b[0], b[1])
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	for i := n; i < len(a); i++ {
		s += float64(a[i] * a[i])
	}
	for i := n; i < len(b); i++ {
		s += float64(b[i] * b[i])
	}
	return s
}

// sqDist2 is sqDist for two 2-D points: the same sums in the same order
// (0 + d0² is exactly d0²).
func sqDist2(ax, ay, bx, by float64) float64 {
	dx, dy := ax-bx, ay-by
	return float64(dx*dx) + float64(dy*dy)
}

// Dist returns the Euclidean distance between two points (exposed for
// tests and examples).
func Dist(a, b []float64) float64 { return math.Sqrt(sqDist(a, b)) }
