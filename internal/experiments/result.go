// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 6 plus Figure 1 and the appendices). Each
// driver returns a Result whose rows reproduce the series or table the
// paper reports; cmd/tbsbench prints them and bench_test.go wraps them in
// testing.B benchmarks. EXPERIMENTS.md carries the experiment index.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Result is a printable experiment outcome: a header and formatted rows,
// optionally followed by free-form notes (e.g. aggregate statistics).
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format writes the result as an aligned text table.
func (r *Result) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(strings.Repeat(" ", pad))
			b.WriteString(c)
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// f2 formats a float with two decimals, f1 with one, f0 as an integer.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f0(x float64) string { return fmt.Sprintf("%.0f", x) }
