package wire

import (
	"encoding/json"
	"math"
	"testing"
)

func TestParseValueRow(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{`{"v":1}`, 1, true},
		{`{"v":-3.25}`, -3.25, true},
		{` { "v" : 0.001 } `, 0.001, true},
		{`{"v":0}`, 0, true},
		{`{"v":-0}`, math.Copysign(0, -1), true},
		{`{"v":1,"tag":"a"}`, 0, false}, // extra member → fallback
		{`{"w":1}`, 0, false},
		{`{"v":1e99}`, 1e99, true},                               // beyond the exact fast path: strconv
		{`{"v":0.12345678901234568}`, 0.12345678901234568, true}, // 17 significant digits
		{`{"v":5e-324}`, 5e-324, true},
		{`{"v":1e-400}`, 0, true}, // underflows to 0, as in encoding/json
		{`{"v":1e400}`, 0, false}, // range error: encoding/json rejects it
		{`{"v":}`, 0, false},
		{`[1]`, 0, false},
		{``, 0, false},
	} {
		got, ok := ParseValueRow([]byte(tc.in))
		if ok != tc.ok {
			t.Errorf("ParseValueRow(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("ParseValueRow(%q) = %v, want %v", tc.in, got, tc.want)
		}
		// Every accepted row decodes to encoding/json's exact bits.
		var ref struct {
			V float64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(tc.in), &ref); err != nil {
			t.Errorf("ParseValueRow(%q) ok but encoding/json errs: %v", tc.in, err)
		} else if math.Float64bits(got) != math.Float64bits(ref.V) {
			t.Errorf("ParseValueRow(%q) = %x, encoding/json %x", tc.in, math.Float64bits(got), math.Float64bits(ref.V))
		}
	}
}

func TestParseLabeledRowMatchesJSON(t *testing.T) {
	inputs := []string{
		`{"x":[1,2,3],"y":4}`,
		`{"x":[],"y":0}`,
		`{"x":[-1.5e2, 0.25],"y":-9}`,
		` { "x" : [ 1 , 2 ] , "y" : 3 } `,
		`{"x":[0.001],"y":98.765432}`,
		`{"x":[1],"y":1e99}`, // beyond the exact fast path: strconv
		`{"x":[12.345678901234567,-0.0012345678901234567],"y":3}`,
		`{"x":[5e-324,1e-400,-0],"y":1.7976931348623157e308}`,
	}
	var scratch []float64
	for _, in := range inputs {
		var x []float64
		var y float64
		var ok bool
		x, y, ok = ParseLabeledRow([]byte(in), scratch)
		scratch = x
		if !ok {
			t.Fatalf("ParseLabeledRow(%q) declined", in)
		}
		var ref struct {
			X []float64 `json:"x"`
			Y float64   `json:"y"`
		}
		if err := json.Unmarshal([]byte(in), &ref); err != nil {
			t.Fatalf("reference unmarshal(%q): %v", in, err)
		}
		if len(x) != len(ref.X) || math.Float64bits(y) != math.Float64bits(ref.Y) {
			t.Fatalf("ParseLabeledRow(%q) = (%v, %v), ref (%v, %v)", in, x, y, ref.X, ref.Y)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(ref.X[i]) {
				t.Fatalf("ParseLabeledRow(%q) x[%d] = %v, ref %v", in, i, x[i], ref.X[i])
			}
		}
	}
}

func TestParseLabeledRowFallbacks(t *testing.T) {
	for _, in := range []string{
		`{"y":4,"x":[1]}`,         // non-canonical key order
		`{"x":[1],"y":2,"z":3}`,   // extra member
		`{"x":[1],"y":1e400}`,     // range error (encoding/json rejects it too)
		`{"x":[1e400],"y":1}`,     // range error in a feature
		`{"x":[1]}`,               // missing y
		`{"x":[1],"y":}`,          // malformed
		`{"x":1,"y":2}`,           // x not an array
		`{"x":["a"],"y":2}`,       // non-number feature
		`{"x":[1],"y":2} trailer`, // trailing junk
	} {
		if _, _, ok := ParseLabeledRow([]byte(in), nil); ok {
			t.Errorf("ParseLabeledRow(%q) ok, want decline", in)
		}
	}
}

func TestAppendRowJSON(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want string
	}{
		{[]float64{7}, `{"v":7}`},
		{[]float64{-3.25}, `{"v":-3.25}`},
		{[]float64{1, 2, 3}, `{"x":[1,2],"y":3}`},
		{[]float64{0.5, 4}, `{"x":[0.5],"y":4}`},
		{nil, ""},
	} {
		if got := string(AppendRowJSON(nil, tc.vals)); got != tc.want {
			t.Errorf("AppendRowJSON(%v) = %q, want %q", tc.vals, got, tc.want)
		}
	}
}

// TestRowJSONRoundTrip closes the loop the binary path relies on:
// rendering a row and re-parsing it must reproduce the floats exactly.
func TestRowJSONRoundTrip(t *testing.T) {
	rows := [][]float64{
		{1}, {-0.001}, {98.765432}, {1e300},
		{1, 2, 3}, {0.1, 0.2, 0.3}, {1.0 / 3.0, math.MaxFloat64, 5e-324},
	}
	var buf []byte
	for _, row := range rows {
		buf = AppendRowJSON(buf[:0], row)
		if !json.Valid(buf) {
			t.Fatalf("AppendRowJSON(%v) = %q: invalid JSON", row, buf)
		}
		var got []float64
		if len(row) == 1 {
			var ref struct {
				V float64 `json:"v"`
			}
			if err := json.Unmarshal(buf, &ref); err != nil {
				t.Fatalf("unmarshal %q: %v", buf, err)
			}
			got = []float64{ref.V}
		} else {
			var ref struct {
				X []float64 `json:"x"`
				Y float64   `json:"y"`
			}
			if err := json.Unmarshal(buf, &ref); err != nil {
				t.Fatalf("unmarshal %q: %v", buf, err)
			}
			got = append(ref.X, ref.Y)
		}
		if len(got) != len(row) {
			t.Fatalf("round trip %v → %q → %v: length", row, buf, got)
		}
		for i := range row {
			if math.Float64bits(got[i]) != math.Float64bits(row[i]) {
				t.Fatalf("round trip %v → %q → %v: bits differ at %d", row, buf, got, i)
			}
		}
	}
}
