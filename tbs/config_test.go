package tbs_test

import (
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/tbs"
)

func ptr[T any](v T) *T { return &v }

// fullConfig returns a valid config covering everything the scheme accepts.
func fullConfig(s tbs.Scheme) tbs.Config {
	c := tbs.Config{Scheme: s.Name}
	for _, name := range s.Options {
		switch name {
		case tbs.OptLambda:
			c.Lambda = ptr(0.2)
		case tbs.OptMaxSize:
			c.MaxSize = ptr(30)
		case tbs.OptSeed:
			c.Seed = ptr(uint64(7))
		case tbs.OptMeanBatch:
			c.MeanBatch = ptr(10.0)
		case tbs.OptHorizon:
			c.Horizon = ptr(5.0)
		}
	}
	return c
}

// TestConfigMatchesOptions checks, for every scheme, that NewFromConfig and
// New with the equivalent option list produce identical stochastic
// processes.
func TestConfigMatchesOptions(t *testing.T) {
	for _, info := range tbs.Schemes() {
		t.Run(info.Name, func(t *testing.T) {
			cfg := fullConfig(info)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			fromCfg, err := tbs.NewFromConfig[int](cfg)
			if err != nil {
				t.Fatalf("NewFromConfig: %v", err)
			}
			fromOpts, err := tbs.New[int](info.Name, fullOptions(info)...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 20; i++ {
				b := batch(i, 17)
				fromCfg.Advance(b)
				fromOpts.Advance(b)
			}
			if got, want := fromCfg.Sample(), fromOpts.Sample(); !reflect.DeepEqual(got, want) {
				t.Fatalf("config-built sample diverges from option-built sample:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestConfigJSONRoundTrip checks that a config survives JSON, including
// the not-set/zero distinction of pointer fields.
func TestConfigJSONRoundTrip(t *testing.T) {
	in := tbs.Config{Scheme: "rtbs", Lambda: ptr(0.0), MaxSize: ptr(100)}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out tbs.Config
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed config: %+v -> %+v", in, out)
	}
	if out.Seed != nil || out.Horizon != nil {
		t.Fatal("unset fields became set through JSON")
	}
}

func TestConfigRejections(t *testing.T) {
	cases := []struct {
		name string
		cfg  tbs.Config
	}{
		{"unknown scheme", tbs.Config{Scheme: "nope"}},
		{"rejected option", tbs.Config{Scheme: "window", MaxSize: ptr(10), Lambda: ptr(0.1)}},
		{"missing required", tbs.Config{Scheme: "rtbs", Lambda: ptr(0.1)}},
		{"invalid value", tbs.Config{Scheme: "rtbs", Lambda: ptr(-1.0), MaxSize: ptr(10)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", c.cfg)
			}
			if _, err := tbs.NewFromConfig[int](c.cfg); err == nil {
				t.Fatalf("NewFromConfig(%+v) = nil error, want error", c.cfg)
			}
		})
	}
}

// TestConfigSeedIgnoredWhenUnaccepted: a seed on a seedless scheme is
// dropped rather than rejected, so keyed registries can re-seed uniformly.
func TestConfigSeedIgnoredWhenUnaccepted(t *testing.T) {
	cfg := tbs.Config{Scheme: "window", MaxSize: ptr(10), Seed: ptr(uint64(99))}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := tbs.NewFromConfig[int](cfg); err != nil {
		t.Fatalf("NewFromConfig: %v", err)
	}
}

// TestRestrictedTo: the full-flag-set config narrows to exactly what each
// scheme accepts, and the result constructs for every scheme.
func TestRestrictedTo(t *testing.T) {
	full := tbs.Config{
		Lambda: ptr(0.2), MaxSize: ptr(30), MeanBatch: ptr(10.0),
		Horizon: ptr(5.0), Seed: ptr(uint64(7)),
	}
	for _, info := range tbs.Schemes() {
		t.Run(info.Name, func(t *testing.T) {
			cfg, err := full.RestrictedTo(info.Name)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Scheme != info.Name {
				t.Fatalf("scheme = %q, want %q", cfg.Scheme, info.Name)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("restricted config invalid: %v", err)
			}
			if _, err := tbs.NewFromConfig[int](cfg); err != nil {
				t.Fatalf("NewFromConfig: %v", err)
			}
			if cfg.Lambda != nil && !info.Accepts(tbs.OptLambda) {
				t.Fatal("lambda survived restriction for a scheme that rejects it")
			}
			if cfg.Horizon != nil && !info.Accepts(tbs.OptHorizon) {
				t.Fatal("horizon survived restriction for a scheme that rejects it")
			}
		})
	}
	if _, err := full.RestrictedTo("no-such-scheme"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestWithSeedCopies(t *testing.T) {
	base := tbs.Config{Scheme: "rtbs", Lambda: ptr(0.1), MaxSize: ptr(10)}
	derived := base.WithSeed(42)
	if base.Seed != nil {
		t.Fatal("WithSeed mutated the receiver")
	}
	if derived.Seed == nil || *derived.Seed != 42 {
		t.Fatalf("derived seed = %v, want 42", derived.Seed)
	}
}

// TestDeriveSeed checks determinism and key separation.
func TestDeriveSeed(t *testing.T) {
	if tbs.DeriveSeed(1, "alpha") != tbs.DeriveSeed(1, "alpha") {
		t.Fatal("DeriveSeed is not deterministic")
	}
	seen := map[uint64]string{}
	for _, key := range []string{"a", "b", "aa", "ab", "stream-1", "stream-2", ""} {
		s := tbs.DeriveSeed(7, key)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision between %q and %q", prev, key)
		}
		seen[s] = key
	}
	if tbs.DeriveSeed(1, "k") == tbs.DeriveSeed(2, "k") {
		t.Fatal("base seed does not separate derived seeds")
	}
}

// TestConcurrentParallelReaders is the RWMutex regression test: many
// readers hammer every read-locked path while writers advance, under
// -race. ttbs and rtbs (whose realization flips a coin from the RNG
// state) both realize under the shared read lock.
func TestConcurrentParallelReaders(t *testing.T) {
	for _, scheme := range []string{"ttbs", "rtbs"} {
		t.Run(scheme, func(t *testing.T) {
			info, err := tbs.Lookup(scheme)
			if err != nil {
				t.Fatal(err)
			}
			base, err := tbs.New[int](scheme, fullOptions(info)...)
			if err != nil {
				t.Fatal(err)
			}
			cs := tbs.NewConcurrent(base)
			cs.Advance(batch(1, 50))

			readers := 4 * runtime.GOMAXPROCS(0)
			if readers < 8 {
				readers = 8
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						cs.Sample()
						cs.ExpectedSize()
						cs.Scheme()
						tbs.Weight[int](cs)
						tbs.Now[int](cs)
						tbs.InclusionProbability[int](cs, 0.5)
					}
				}()
			}
			for i := 2; i <= 30; i++ {
				cs.Advance(batch(i, 20))
				if _, err := cs.Snapshot(); err != nil {
					t.Error(err)
					break
				}
			}
			close(stop)
			wg.Wait()
			if got := cs.ExpectedSize(); got <= 0 {
				t.Fatalf("ExpectedSize = %v after concurrent load, want > 0", got)
			}
		})
	}
}
