package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"testing"
)

// FuzzValidateDifferential holds the fast validator and the fast number
// parsers in lockstep with the encoding/json + strconv reference path.
// The seeded corpus (escapes, exponents, NaN/Inf spellings, truncated
// lines) runs in a normal `go test`; `go test -fuzz=FuzzValidate`
// explores beyond it.
func FuzzValidateDifferential(f *testing.F) {
	for _, tc := range validateCases {
		f.Add([]byte(tc))
	}
	for _, tc := range numberCases {
		f.Add([]byte(tc))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ref := json.Valid(b)
		switch Validate(b) {
		case Valid:
			if !ref {
				t.Fatalf("Validate(%q) = Valid, json.Valid = false", b)
			}
		case Invalid:
			if ref {
				t.Fatalf("Validate(%q) = Invalid, json.Valid = true", b)
			}
		}

		// Number decode: whenever the fast path answers, it must answer
		// with strconv's exact bits.
		if got, ok := ParseFloat(b); ok {
			want, err := strconv.ParseFloat(string(b), 64)
			if err != nil {
				t.Fatalf("ParseFloat(%q) ok but strconv errs: %v", b, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ParseFloat(%q): %x vs strconv %x", b, math.Float64bits(got), math.Float64bits(want))
			}
			// And formatting the value back must round-trip exactly.
			s := AppendFloat(nil, got)
			back, err := strconv.ParseFloat(string(s), 64)
			if err != nil || math.Float64bits(back) != math.Float64bits(got) {
				t.Fatalf("AppendFloat(%v) = %q does not round-trip (err %v)", got, s, err)
			}
		}

		// Value rows: a fast-path answer must match the reference decode
		// of the same bytes.
		if v, ok := ParseValueRow(b); ok {
			var ref struct {
				V float64 `json:"v"`
			}
			if err := json.Unmarshal(b, &ref); err != nil {
				t.Fatalf("ParseValueRow(%q) ok but reference errs: %v", b, err)
			}
			if math.Float64bits(v) != math.Float64bits(ref.V) {
				t.Fatalf("ParseValueRow(%q): %v vs reference %v", b, v, ref.V)
			}
		}
		if x, y, ok := ParseLabeledRow(b, nil); ok {
			var ref struct {
				X []float64 `json:"x"`
				Y float64   `json:"y"`
			}
			if err := json.Unmarshal(b, &ref); err != nil {
				t.Fatalf("ParseLabeledRow(%q) ok but reference errs: %v", b, err)
			}
			if len(x) != len(ref.X) || math.Float64bits(y) != math.Float64bits(ref.Y) {
				t.Fatalf("ParseLabeledRow(%q): (%v,%v) vs reference (%v,%v)", b, x, y, ref.X, ref.Y)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(ref.X[i]) {
					t.Fatalf("ParseLabeledRow(%q): x[%d] %v vs %v", b, i, x[i], ref.X[i])
				}
			}
		}
	})
}

// FuzzLabeledRowDifferential holds ParseLabeledRow to encoding/json. The
// input is a comma-separated token list; the last token is the label and
// the rest are features of a canonical row {"x":[…],"y":…}. When every
// token is a JSON number the two decoders must agree on the verdict —
// the per-number strconv fallback declines exactly the numbers
// encoding/json rejects (range errors) — and on every float's bits. The
// raw input is also parsed as a row on its own, where only an
// acceptance is checked, since encoding/json also takes non-canonical
// rows.
func FuzzLabeledRowDifferential(f *testing.F) {
	for _, tc := range []string{
		"1,2,3",
		"0.12345678901234567,-12.345678901234567,1",
		"1e99,-1e99,1e99",
		"1e400,0,1",
		"-0,-0,-0",
		"5e-324,4.9e-324,2.2250738585072014e-308",
		"1e-400,1,2",
		"7",
		`{"x":[1.7976931348623157e308],"y":1}`,
	} {
		f.Add([]byte(tc))
	}
	type ref struct {
		X []float64 `json:"x"`
		Y *float64  `json:"y"`
	}
	check := func(t *testing.T, row []byte, canonical bool) {
		x, y, ok := ParseLabeledRow(row, nil)
		var r ref
		err := json.Unmarshal(row, &r)
		refOK := err == nil && r.Y != nil
		if canonical && ok != refOK {
			t.Fatalf("ParseLabeledRow(%q) ok = %v, encoding/json ok = %v (err %v)", row, ok, refOK, err)
		}
		if !ok {
			return
		}
		if !refOK {
			t.Fatalf("ParseLabeledRow(%q) ok but encoding/json declines (err %v)", row, err)
		}
		if len(x) != len(r.X) || math.Float64bits(y) != math.Float64bits(*r.Y) {
			t.Fatalf("ParseLabeledRow(%q) = (%v, %v), encoding/json (%v, %v)", row, x, y, r.X, *r.Y)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(r.X[i]) {
				t.Fatalf("ParseLabeledRow(%q) x[%d] = %x, encoding/json %x", row, i, math.Float64bits(x[i]), math.Float64bits(r.X[i]))
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check(t, b, false)
		toks := bytes.Split(b, []byte{','})
		canonical := true
		for _, tok := range toks {
			canonical = canonical && isJSONNumber(tok)
		}
		row := append([]byte(`{"x":[`), bytes.Join(toks[:len(toks)-1], []byte{','})...)
		row = append(append(append(row, `],"y":`...), toks[len(toks)-1]...), '}')
		check(t, row, canonical)
	})
}

// isJSONNumber reports whether tok is one JSON number, optionally padded
// with JSON whitespace.
func isJSONNumber(tok []byte) bool {
	t := bytes.Trim(tok, " \t\r\n")
	return json.Valid(tok) && len(t) > 0 && (t[0] == '-' || '0' <= t[0] && t[0] <= '9')
}

// FuzzBinReader feeds arbitrary bytes to the frame decoder: it must
// never panic, every failure must be a structured *BinError, and every
// decoded row must be finite and renderable as valid JSON.
func FuzzBinReader(f *testing.F) {
	f.Add(AppendFrame(nil, [][]float64{{1}, {0.1, 0.2, 0.3}}))
	f.Add(AppendFrame(AppendFrame(nil, [][]float64{{42.125}}), [][]float64{{1, 2}}))
	f.Add(AppendFrame(nil, [][]float64{{math.MaxFloat64, 5e-324}}))
	f.Add(AppendFrame(nil, [][]float64{{1}})[:5]) // truncated header
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := NewBinReader()
		br.Reset(bytes.NewReader(data))
		var buf []byte
		for {
			row, err := br.NextRow()
			if err == io.EOF {
				return
			}
			if err != nil {
				var be *BinError
				if !errors.As(err, &be) {
					t.Fatalf("non-structured decode error: %v", err)
				}
				if be.Frame < 1 || be.Offset < 0 || be.Offset > int64(len(data)) {
					t.Fatalf("BinError position out of range: %+v", be)
				}
				return
			}
			if len(row) == 0 || len(row) > MaxBinRowFloats {
				t.Fatalf("decoded row width %d out of range", len(row))
			}
			buf = AppendRowJSON(buf[:0], row)
			if !json.Valid(buf) {
				t.Fatalf("decoded row %v renders invalid JSON %q", row, buf)
			}
		}
	})
}
