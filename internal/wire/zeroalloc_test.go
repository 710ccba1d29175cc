package wire

import (
	"bytes"
	"strings"
	"testing"
)

// TestWireParseZeroAlloc enforces the tentpole's zero-allocation bound:
// the full line loop — chunked scan, validation, row decode — must not
// allocate at steady state. testing.AllocsPerRun warms the function up
// once, which covers the first-use buffer growth.
func TestWireParseZeroAlloc(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 512; i++ {
		sb.WriteString(`{"v":`)
		sb.Write(AppendFloat(nil, float64(i)+0.125))
		sb.WriteString("}\n")
		sb.WriteString(`{"x":[1.5,2.25,3.125],"y":`)
		sb.Write(AppendFloat(nil, float64(i)))
		sb.WriteString("}\n")
	}
	body := []byte(sb.String())

	lr := NewLineReader(0)
	src := bytes.NewReader(body)
	var x []float64
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(body)
		lr.Reset(src)
		for {
			line, _, err := lr.Next()
			if err != nil {
				break
			}
			line = TrimSpace(line)
			if Validate(line) != Valid {
				t.Fatal("unexpected verdict on canonical line")
			}
			if _, ok := ParseValueRow(line); ok {
				continue
			}
			var lok bool
			if x, _, lok = ParseLabeledRow(line, x); !lok {
				t.Fatal("canonical labeled row declined")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("line parse loop allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestWireBinDecodeZeroAlloc: the binary row decoder is likewise
// allocation-free once its scratch has grown.
func TestWireBinDecodeZeroAlloc(t *testing.T) {
	rows := make([][]float64, 256)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(i) + 0.5, float64(i) * 1.25}
	}
	data := AppendFrame(nil, rows)
	br := NewBinReader()
	src := bytes.NewReader(data)
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(data)
		br.Reset(src)
		for {
			if _, err := br.NextRow(); err != nil {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("binary decode loop allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestParseLabeledRowFullPrecisionZeroAlloc: rows of 17-significant-digit
// floats, which miss ParseFloat's exact fast path, decode through the
// per-number strconv fallback without allocating, and none declines.
func TestParseLabeledRowFullPrecisionZeroAlloc(t *testing.T) {
	rows := make([][]byte, 256)
	for i := range rows {
		f := float64(i) + 1.0/3.0
		rows[i] = AppendRowJSON(nil, []float64{f * 0.1234567, -f / 7, float64(i % 4)})
	}
	var x []float64
	allocs := testing.AllocsPerRun(20, func() {
		for _, r := range rows {
			var ok bool
			if x, _, ok = ParseLabeledRow(r, x); !ok {
				t.Fatalf("full-precision row %q declined", r)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("full-precision ParseLabeledRow allocates %.2f allocs/op, want 0", allocs)
	}
}
