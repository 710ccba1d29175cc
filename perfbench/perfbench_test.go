package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTinyWorkloads runs every workload in tiny mode, untraced and traced,
// against a tbsd built from this tree, and checks that the correctness
// checks pass and that every metric BENCHMARK.json declares is printed
// with its unit.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tbsd and runs daemons")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(declaredLayers) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(declaredLayers))
	}

	dir := t.TempDir()
	tbsd := filepath.Join(dir, "tbsd")
	if out, err := exec.Command("go", "build", "-o", tbsd, "repro/cmd/tbsd").CombinedOutput(); err != nil {
		t.Fatalf("build tbsd: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]decl{spec.EndToEnd, spec.PerLayer} {
			name := w.Name + map[int]string{0: "/untraced", 1: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-tiny", "-tbsd", tbsd, "-workdir", filepath.Join(dir, "work"),
					"--workload", w.Name, "--seed", "7", "--seconds", "2", "--trace", map[int]string{0: "0", 1: "1"}[trace]}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not printed", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s printed in %q, declared in %q", d.Name, m.Unit, d.Unit)
					}
				}
			})
		}
	}
}
