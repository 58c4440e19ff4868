package prec

import "testing"

func TestParseCanonicalAndAliases(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{
		{"", F64},
		{"float64", F64},
		{"f64", F64},
		{"fp64", F64},
		{"double", F64},
		{"float32", F32},
		{"f32", F32},
		{"fp32", F32},
		{"single", F32},
	} {
		got, err := Parse(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("Parse(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"float16", "FLOAT64", "wide", "32"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestStringAndWireBytes(t *testing.T) {
	if F64.String() != "float64" || F32.String() != "float32" {
		t.Fatalf("String: %q, %q", F64.String(), F32.String())
	}
	if F64.WireBytesPerValue() != 8 || F32.WireBytesPerValue() != 4 {
		t.Fatalf("WireBytesPerValue: %d, %d", F64.WireBytesPerValue(), F32.WireBytesPerValue())
	}
	// Round-trip: Parse(p.String()) is the identity, so canonical strings
	// written into checkpoints always parse back.
	for _, p := range []Precision{F64, F32} {
		if got, err := Parse(p.String()); err != nil || got != p {
			t.Errorf("Parse(%s.String()) = %v, %v", p, got, err)
		}
	}
}
