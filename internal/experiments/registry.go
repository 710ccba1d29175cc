package experiments

import (
	"fmt"
	"sort"
)

// Spec describes one runnable experiment. Quick mode trades replication for
// speed (used by tests); full mode matches the paper's run counts.
type Spec struct {
	ID    string
	Title string
	Run   func(quick bool, seed uint64) (*Result, error)
}

// runsFor picks the replication level.
func runsFor(quick bool, full, quickRuns int) int {
	if quick {
		return quickRuns
	}
	return full
}

// Registry returns every experiment, sorted by ID. Each entry regenerates
// one of the paper's tables or figures (the index is in EXPERIMENTS.md).
func Registry() []Spec {
	specs := []Spec{
		{"fig1a", "T-TBS vs R-TBS sample size, growing batches", func(quick bool, seed uint64) (*Result, error) {
			return Fig1(Fig1Growing, strideFor(quick), seed)
		}},
		{"fig1b", "T-TBS vs R-TBS sample size, stable deterministic batches", func(quick bool, seed uint64) (*Result, error) {
			return Fig1(Fig1StableDet, strideFor(quick), seed)
		}},
		{"fig1c", "T-TBS vs R-TBS sample size, uniform batches", func(quick bool, seed uint64) (*Result, error) {
			return Fig1(Fig1StableUnif, strideFor(quick), seed)
		}},
		{"fig1d", "T-TBS vs R-TBS sample size, decaying batches", func(quick bool, seed uint64) (*Result, error) {
			return Fig1(Fig1Decaying, strideFor(quick), seed)
		}},
		{"fig7", "distributed per-batch runtime, five implementations", func(_ bool, seed uint64) (*Result, error) {
			return Fig7(seed)
		}},
		{"fig8", "D-R-TBS scale-out", func(_ bool, seed uint64) (*Result, error) {
			return Fig8(seed)
		}},
		{"fig9", "D-R-TBS scale-up", func(_ bool, seed uint64) (*Result, error) {
			return Fig9(seed)
		}},
		{"fig10a", "kNN misclassification, single event", func(quick bool, seed uint64) (*Result, error) {
			return Fig10a(runsFor(quick, 30, 3), seed)
		}},
		{"fig10b", "kNN misclassification, Periodic(10,10)", func(quick bool, seed uint64) (*Result, error) {
			return Fig10b(runsFor(quick, 30, 3), seed)
		}},
		{"fig11a", "kNN, uniform batch sizes", func(quick bool, seed uint64) (*Result, error) {
			return Fig11a(runsFor(quick, 30, 3), seed)
		}},
		{"fig11b", "kNN, growing batch sizes", func(quick bool, seed uint64) (*Result, error) {
			return Fig11b(runsFor(quick, 30, 3), seed)
		}},
		{"fig12a", "linear regression, saturated samples", func(quick bool, seed uint64) (*Result, error) {
			return Fig12a(runsFor(quick, 30, 3), seed)
		}},
		{"fig12b", "linear regression, unsaturated, P(10,10)", func(quick bool, seed uint64) (*Result, error) {
			return Fig12b(runsFor(quick, 30, 3), seed)
		}},
		{"fig12c", "linear regression, unsaturated, P(16,16)", func(quick bool, seed uint64) (*Result, error) {
			return Fig12c(runsFor(quick, 30, 3), seed)
		}},
		{"fig13", "Naive Bayes on recurring-context text", func(quick bool, seed uint64) (*Result, error) {
			return Fig13(runsFor(quick, 30, 3), seed)
		}},
		{"fig14a", "kNN, Periodic(20,10)", func(quick bool, seed uint64) (*Result, error) {
			return Fig14a(runsFor(quick, 30, 3), seed)
		}},
		{"fig14b", "kNN, Periodic(30,10)", func(quick bool, seed uint64) (*Result, error) {
			return Fig14b(runsFor(quick, 30, 3), seed)
		}},
		{"table1", "kNN accuracy and robustness grid", func(quick bool, seed uint64) (*Result, error) {
			return Table1(runsFor(quick, 30, 3), seed)
		}},
		{"chao-violation", "Appendix D: B-Chao inclusion-probability violation", func(quick bool, seed uint64) (*Result, error) {
			return ChaoViolation(runsFor(quick, 40000, 4000), seed)
		}},
		{"ares-violation", "Section 7: A-Res acceptance-vs-appearance bias", func(quick bool, seed uint64) (*Result, error) {
			return AResViolation(runsFor(quick, 40000, 4000), seed)
		}},
		{"ttbs-law", "Theorem 3.1(ii): T-TBS mean sample-size law", func(quick bool, seed uint64) (*Result, error) {
			return TTBSLaw(runsFor(quick, 5000, 500), seed)
		}},
		{"cluster", "clustered ingest: direct node vs router-forwarded NDJSON", ClusterIngest},
		{"hibernate", "memory tiering: warm-path overhead and cold-hit hydration latency", Hibernate},
		{"ingest", "ingest pipeline: JSON vs NDJSON+engine vs core hot path", IngestPipeline},
		{"serve-drift", "online model management through the tbsd HTTP path: always vs drift retraining", ServeDrift},
		{"wal", "WAL append throughput: fsync policies and group commit", WALAppend},
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return specs
}

func strideFor(quick bool) int {
	if quick {
		return 100
	}
	return 10
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Spec, error) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
