package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/rand/v2"
	"slices"
	"syscall"
)

// The machine the benchmark runs on is shared: neighbours contend for
// caches, memory bandwidth and core siblings, so the same work costs up to
// 40% more CPU time in some minutes than in others (measured with refJob:
// 48.7-67.8 ms of CPU for identical work across one ten-run set). Every
// pass therefore runs refJob between its phases, and the gated CPU costs
// are scaled to a machine on which refJob takes refNominal. The raw costs
// are printed beside them.

// refNominal is refJob's CPU time on the uncontended machine the benchmark
// was sized on; it only fixes the scale of the normalized costs.
const refNominal = 0.050

// refJob is a fixed piece of CPU- and memory-bound work that shares no
// code with tbsd: sorting, hashing, JSON and map churn from the standard
// library.
func refJob() {
	r := rand.New(rand.NewPCG(1, 2))
	xs := make([]uint64, 200_000)
	for i := range xs {
		xs[i] = r.Uint64()
	}
	slices.Sort(xs)
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(xs[i%len(xs)])
	}
	_ = sha256.Sum256(buf)
	type row struct {
		K string
		V []float64
	}
	rows := make([]row, 2000)
	for i := range rows {
		rows[i] = row{K: string(rune('a' + i%26)), V: []float64{float64(i), r.Float64(), r.NormFloat64()}}
	}
	data, _ := json.Marshal(rows)
	var back []row
	_ = json.Unmarshal(data, &back)
	m := map[uint64]int{}
	for i, x := range xs[:50_000] {
		m[x] = i
	}
	sink += len(back) + len(m)
}

var sink int

// selfCPU is this process's CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// refCPU runs refJob n times and returns the median CPU seconds per run.
// tbsd is idle meanwhile (it runs between phases), so the job measures
// the machine, not its competition with tbsd.
func refCPU(n int) float64 {
	per := make([]float64, n)
	for i := range per {
		c0 := selfCPU()
		refJob()
		per[i] = selfCPU() - c0
	}
	return median(per)
}
