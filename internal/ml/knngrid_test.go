package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// These tests cover KNN's uniform-grid index: when Fit builds it, and
// that every prediction it answers equals the exhaustive scan's. The
// reference is refPredict, the plain scan with a map-based vote that KNN
// shipped before the index existed; agreement is checked with the index
// in place and with it stripped (scan alone). Run them with an explicit
// -timeout: a pruning or ring-walk bug shows up as a hang.

// refPredict is the reference kNN: a bounded insertion sort over the
// squared distances in training order, then a majority vote counted in
// a map, ties to the label met first.
func refPredict(k int, xs [][]float64, ys []int, x []float64) int {
	if len(xs) == 0 {
		return -1
	}
	if k > len(xs) {
		k = len(xs)
	}
	dists := make([]float64, k)
	labels := make([]int, k)
	filled := 0
	for i, p := range xs {
		d := sqDist(x, p)
		if filled == k && d >= dists[k-1] {
			continue
		}
		j := filled
		if j == k {
			j = k - 1
		} else {
			filled++
		}
		for j > 0 && dists[j-1] > d {
			dists[j] = dists[j-1]
			labels[j] = labels[j-1]
			j--
		}
		dists[j] = d
		labels[j] = ys[i]
	}
	votes := make(map[int]int, filled)
	best, bestVotes := labels[0], 0
	for _, lbl := range labels[:filled] {
		votes[lbl]++
		if votes[lbl] > bestVotes {
			best, bestVotes = lbl, votes[lbl]
		}
	}
	return best
}

// checkAgreement fits KNN(k) and asserts that every query's prediction
// equals refPredict's, through the index (when built) and through the
// scan alone. It returns how many queries the index answered.
func checkAgreement(t *testing.T, k int, xs [][]float64, ys []int, queries [][]float64) int {
	t.Helper()
	m, err := NewKNN(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	scan := &KNN{k: k, xs: xs, ys: ys}
	indexed := 0
	for _, q := range queries {
		want := refPredict(k, xs, ys, q)
		if got := m.Predict(q); got != want {
			t.Fatalf("k=%d n=%d query %v: Predict = %d, reference %d (index built: %v, covers: %v)",
				k, len(xs), q, got, want, m.grid != nil, m.grid != nil && m.grid.covers(q))
		}
		if got := scan.Predict(q); got != want {
			t.Fatalf("k=%d n=%d query %v: scan = %d, reference %d", k, len(xs), q, got, want)
		}
		if m.grid != nil && m.grid.covers(q) {
			indexed++
		}
	}
	return indexed
}

// TestKNNGridValidation pins when Fit builds the index: more than 4k
// training points, each with exactly 2 finite coordinates, in a box
// whose squared diagonal is finite and whose cells are not subnormal.
func TestKNNGridValidation(t *testing.T) {
	square := func(n int) [][]float64 {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = []float64{float64(i % 10), float64(i / 10)}
		}
		return xs
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name  string
		k     int
		xs    [][]float64
		index bool
	}{
		{"2-D", 7, square(100), true},
		{"n = 4k", 7, square(28), false},
		{"n = 4k+1", 7, square(29), true},
		{"3-D row", 3, append(square(50), []float64{1, 2, 3}), false},
		{"1-D row", 3, append(square(50), []float64{1}), false},
		{"NaN", 3, append(square(50), []float64{nan, 1}), false},
		{"+Inf", 3, append(square(50), []float64{1, inf}), false},
		{"-Inf", 3, append(square(50), []float64{-inf, 1}), false},
		{"±1e300 overflows the diagonal", 3, append(square(50), []float64{1e300, -1e300}), false},
		{"±1e19", 3, append(square(50), []float64{1e19, -1e19}), true},
		{"all at the origin", 3, [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}, false},
		{"collinear", 3, [][]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0}, {9, 0}, {10, 0}, {11, 0}, {12, 0}}, true},
		{"subnormal cells", 3, [][]float64{{0, 0}, {1e-300, 0}, {2e-300, 0}, {3e-300, 0}, {0, 1e-300}, {0, 2e-300}, {0, 3e-300}, {1e-300, 1e-300}, {2e-300, 2e-300}, {3e-300, 3e-300}, {1e-300, 2e-300}, {2e-300, 1e-300}, {3e-300, 1e-300}}, false},
	} {
		m, err := NewKNN(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(tc.xs, make([]int, len(tc.xs))); err != nil {
			t.Fatal(err)
		}
		if got := m.grid != nil; got != tc.index {
			t.Errorf("%s: index built = %v, want %v", tc.name, got, tc.index)
		}
	}
	m, _ := NewKNN(3)
	if err := m.Fit(square(100), make([]int, 100)); err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(nil, nil); err != nil || m.grid != nil || m.Predict([]float64{0, 0}) != -1 {
		t.Errorf("refit on an empty set kept the index or predicted (err %v)", err)
	}
}

func TestKNNGridTinyFallback(t *testing.T) {
	m, err := NewKNN(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit([][]float64{{0, 0}, {1, 1}}, []int{3, 3}); err != nil {
		t.Fatal(err)
	}
	if m.grid != nil {
		t.Error("index built for a 2-point set")
	}
	if got := m.Predict([]float64{0.5, 0.5}); got != 3 {
		t.Errorf("tiny set predicted %d", got)
	}
	if m.TrainSize() != 2 {
		t.Errorf("TrainSize = %d", m.TrainSize())
	}
}

// TestKNNGridAgreesWithExhaustive is the key correctness property: on
// random instances the indexed classifier returns the reference scan's
// prediction, for queries inside, near and far outside the training
// bounding box.
func TestKNNGridAgreesWithExhaustive(t *testing.T) {
	f := func(seed uint16) bool {
		rng := xrand.New(uint64(seed) + 1)
		n := 50 + rng.Intn(300)
		xs := make([][]float64, n)
		ys := make([]int, n)
		for i := range xs {
			xs[i] = []float64{rng.Float64() * 80, rng.Float64() * 80}
			ys[i] = rng.Intn(5)
		}
		queries := make([][]float64, 30)
		for i := range queries {
			switch i % 3 {
			case 0: // inside
				queries[i] = []float64{rng.Float64() * 80, rng.Float64() * 80}
			case 1: // near the boundary
				queries[i] = []float64{rng.Float64()*90 - 5, rng.Float64()*90 - 5}
			default: // far outside
				queries[i] = []float64{rng.Float64()*400 - 160, rng.Float64()*400 - 160}
			}
		}
		return checkAgreement(t, 1+rng.Intn(7), xs, ys, queries) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestKNNGridAgreesOnTies covers exact distance ties, where the index
// and the scan meet candidates in different orders: an integer lattice
// with every point duplicated (labels differ between copies), queried at
// every lattice point, cell corner and half-step between them.
func TestKNNGridAgreesOnTies(t *testing.T) {
	var xs [][]float64
	var ys []int
	for copy := 0; copy < 3; copy++ {
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				xs = append(xs, []float64{float64(i), float64(j)})
				ys = append(ys, (i+2*j+copy)%4)
			}
		}
	}
	var queries [][]float64
	for i := 0; i <= 16; i++ {
		for j := 0; j <= 16; j++ {
			queries = append(queries, []float64{float64(i) / 2, float64(j) / 2})
		}
	}
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13} {
		if got := checkAgreement(t, k, xs, ys, queries); got != len(queries) {
			t.Fatalf("k=%d: index answered %d of %d lattice queries", k, got, len(queries))
		}
	}
}

// TestKNNGridAgreesAcrossScales moves random and lattice sets (with
// duplicates) across offsets and extents where coordinate rounding is
// comparable to a cell — points near 1e15 spread over 1e-3, say — the
// regime the pruning bound's half-cell slack exists for. Queries sit on
// training points, inside the box, on its corners and midlines, and
// just past its edges.
func TestKNNGridAgreesAcrossScales(t *testing.T) {
	rng := xrand.New(99)
	offsets := []float64{0, 1e3, -1e8, 1e15, 3e18, -1e150}
	scales := []float64{1e-9, 1e-3, 1, 80, 1e6, 1e12, 1e100}
	for trial := 0; trial < 300; trial++ {
		n, k := 20+rng.Intn(400), 1+rng.Intn(12)
		off := offsets[rng.Intn(len(offsets))]
		sx, sy := scales[rng.Intn(len(scales))], scales[rng.Intn(len(scales))]
		lattice := rng.Intn(3) == 0
		xs := make([][]float64, n)
		ys := make([]int, n)
		for i := range xs {
			switch {
			case i > 0 && rng.Intn(10) == 0:
				xs[i] = xs[i-1]
			case lattice:
				xs[i] = []float64{float64(rng.Intn(7))*sx + off, float64(rng.Intn(7))*sy + off}
			default:
				xs[i] = []float64{rng.Float64()*sx + off, rng.Float64()*sy + off}
			}
			ys[i] = rng.Intn(4)
		}
		queries := make([][]float64, 0, 16)
		for q := 0; q < 4; q++ {
			p := xs[rng.Intn(n)]
			queries = append(queries,
				[]float64{p[0], p[1]},
				[]float64{rng.Float64()*sx + off, rng.Float64()*sy + off},
				[]float64{off + float64(rng.Intn(3))*sx/2, off + float64(rng.Intn(3))*sy/2},
				[]float64{rng.Float64()*sx*1.2 + off - 0.1*sx, math.Nextafter(rng.Float64()*sy+off, math.Inf(1))})
		}
		checkAgreement(t, k, xs, ys, queries)
	}
}

// TestKNNAgreesOnEdgeInputs covers the inputs the index must decline or
// survive: k ≥ n, tiny sets, mixed dimensions, NaN and ±Inf coordinates
// (binary rows can carry both), and training points and queries at ±1e19
// and ±1e300, where a ring walk to the query would never end.
func TestKNNAgreesOnEdgeInputs(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rng := xrand.New(5)
	cloud := func(n int, scale float64) ([][]float64, []int) {
		xs := make([][]float64, n)
		ys := make([]int, n)
		for i := range xs {
			xs[i] = []float64{(rng.Float64() - 0.5) * scale, (rng.Float64() - 0.5) * scale}
			ys[i] = rng.Intn(3)
		}
		return xs, ys
	}
	extreme := [][]float64{
		{1e19, 1e19}, {-1e19, 1e19}, {1e19, 0}, {0, -1e19},
		{1e300, 1e300}, {-1e300, -1e300}, {1e300, 0}, {-1e300, 5},
		{inf, 0}, {0, -inf}, {nan, 1}, {1, nan}, {nan, nan},
		{0, 0}, {1, 2}, {-3, 4}, {5}, {1, 2, 3}, {}, {4, 4, 0},
	}
	// with extends a 2-D cloud of n points by extra training points.
	with := func(n int, extra ...[]float64) func() ([][]float64, []int) {
		return func() ([][]float64, []int) {
			xs, ys := cloud(n, 10)
			for i, p := range extra {
				xs, ys = append(xs, p), append(ys, i%3)
			}
			return xs, ys
		}
	}
	for _, tc := range []struct {
		name string
		k    int
		data func() ([][]float64, []int)
	}{
		{"k > n", 9, with(8)},
		{"k = n", 40, with(40)},
		{"k = 1", 1, with(40)},
		{"one point", 7, with(0, []float64{1, 1})},
		{"mixed dimensions", 3, with(12, []float64{1}, []float64{3, 3, 3}, []float64{1, 1, 1, 1})},
		{"NaN and Inf training points", 3, with(40, []float64{nan, 0}, []float64{inf, 1}, []float64{2, -inf})},
		{"training at ±1e19", 3, with(60, []float64{1e19, 1e19}, []float64{-1e19, 3}, []float64{0, 1e19})},
		{"training at ±1e300", 3, with(60, []float64{1e300, 1e300}, []float64{-1e300, 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			xs, ys := tc.data()
			queries := append([][]float64(nil), extreme...)
			for i := 0; i < 20; i++ {
				queries = append(queries, []float64{(rng.Float64() - 0.5) * 12, (rng.Float64() - 0.5) * 12})
			}
			checkAgreement(t, tc.k, xs, ys, queries)
		})
	}
	// A wide but finite box: the index holds points at ±1e19, and
	// queries across it, at its corners and just outside agree too.
	xs, ys := cloud(200, 2e19)
	xs = append(xs, []float64{1e19, 1e19}, []float64{-1e19, -1e19})
	ys = append(ys, 1, 2)
	queries := [][]float64{{1e19, 1e19}, {-1e19, -1e19}, {0, 0}, {1e19, -1e19}, {1.0000000000000002e19, 0}, {1e300, 1e300}}
	for i := 0; i < 50; i++ {
		queries = append(queries, []float64{(rng.Float64() - 0.5) * 2e19, (rng.Float64() - 0.5) * 2e19})
	}
	if checkAgreement(t, 7, xs, ys, queries) == 0 {
		t.Error("index answered no query on the ±1e19 box")
	}
}

func TestKNNGridClusterAccuracy(t *testing.T) {
	rng := xrand.New(20)
	var xs [][]float64
	var ys []int
	centers := [][2]float64{{0, 0}, {40, 0}, {0, 40}, {40, 40}}
	for c, ctr := range centers {
		for i := 0; i < 200; i++ {
			xs = append(xs, []float64{rng.Normal(ctr[0], 1), rng.Normal(ctr[1], 1)})
			ys = append(ys, c)
		}
	}
	m, err := NewKNN(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if m.grid == nil {
		t.Fatal("no index on an 800-point 2-D set")
	}
	correct := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		c := rng.Intn(4)
		if m.Predict([]float64{rng.Normal(centers[c][0], 1), rng.Normal(centers[c][1], 1)}) == c {
			correct++
		}
	}
	if acc := float64(correct) / trials; acc < 0.98 {
		t.Errorf("accuracy = %v", acc)
	}
}

// TestKNNGobRebuildsIndex: a decoded model rebuilds its index and serves
// the same predictions as the model it was encoded from.
func TestKNNGobRebuildsIndex(t *testing.T) {
	rng := xrand.New(23)
	xs := make([][]float64, 300)
	ys := make([]int, 300)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 80, rng.Float64() * 80}
		ys[i] = rng.Intn(4)
	}
	m, _ := NewKNN(7)
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	data, err := m.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var got KNN
	if err := got.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if got.grid == nil {
		t.Fatal("decoded model has no index")
	}
	for i := 0; i < 200; i++ {
		q := []float64{rng.Float64()*90 - 5, rng.Float64()*90 - 5}
		if a, b := m.Predict(q), got.Predict(q); a != b {
			t.Fatalf("query %v: original %d, decoded %d", q, a, b)
		}
	}
}

func TestKNNPredictZeroAlloc(t *testing.T) {
	rng := xrand.New(24)
	xs := make([][]float64, 1000)
	ys := make([]int, 1000)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 80, rng.Float64() * 80}
		ys[i] = rng.Intn(4)
	}
	m, _ := NewKNN(7)
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	inside, outside := []float64{40, 40}, []float64{-1e19, 1e19}
	if allocs := testing.AllocsPerRun(50, func() {
		m.Predict(inside)
		m.Predict(outside)
	}); allocs != 0 {
		t.Errorf("Predict allocates %.1f per index+scan query pair, want 0", allocs)
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	rng := xrand.New(22)
	const n = 2000
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 80, rng.Float64() * 80}
		ys[i] = rng.Intn(100)
	}
	queries := make([][]float64, 256)
	for i := range queries {
		queries[i] = []float64{rng.Float64() * 80, rng.Float64() * 80}
	}
	indexed, _ := NewKNN(7)
	if err := indexed.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		m    *KNN
	}{{"index", indexed}, {"scan", &KNN{k: 7, xs: xs, ys: ys}}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.m.Predict(queries[i%len(queries)])
			}
		})
	}
}
