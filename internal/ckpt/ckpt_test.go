package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"testing"

	"diffreg/internal/optim"
)

func sample() *State {
	st := &State{
		N: [3]int{4, 3, 2}, Tasks: 4,
		Beta: 1e-2, BetaLevel: 1, Iter: 7,
		JInit: 3.25, MisfitInit: 3.0, GnormInit: 12.5,
		History: []optim.IterRecord{
			{Iter: 0, J: 3.25, Misfit: 3, Gnorm: 12.5, Forcing: 0.5, CGIters: 4, Step: 1, LineTrial: 1},
			{Iter: 1, J: 1.5, Misfit: 1.25, Gnorm: 4.75, Forcing: 0.31, CGIters: 7, Step: 0.5, LineTrial: 2},
		},
		Seed: 42,
	}
	for d := 0; d < 3; d++ {
		st.V[d] = make([]float64, 24)
		for i := range st.V[d] {
			st.V[d][i] = math.Sin(float64(d*100+i)) * math.Pow(10, float64(d-1))
		}
	}
	return st
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.ckpt")
	want := sample()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.Tasks != want.Tasks || got.Beta != want.Beta ||
		got.BetaLevel != want.BetaLevel || got.Iter != want.Iter || got.Seed != want.Seed {
		t.Fatalf("header mismatch: %+v vs %+v", got, want)
	}
	if got.JInit != want.JInit || got.MisfitInit != want.MisfitInit || got.GnormInit != want.GnormInit {
		t.Fatalf("scalar mismatch")
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("history length %d vs %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i] != want.History[i] {
			t.Errorf("history %d: %+v vs %+v", i, got.History[i], want.History[i])
		}
	}
	for d := 0; d < 3; d++ {
		for i := range want.V[d] {
			if got.V[d][i] != want.V[d][i] {
				t.Fatalf("component %d value %d: %v vs %v (must be bit-identical)", d, i, got.V[d][i], want.V[d][i])
			}
		}
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.ckpt")
	first := sample()
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Iter = 11
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 11 {
		t.Fatalf("stale checkpoint survived: iter %d", got.Iter)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("leftover files: %v", entries)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reg.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"bitflip":   append([]byte{}, raw...),
		"truncated": raw[:len(raw)/2],
		"badmagic":  append([]byte("NOTACKPT"), raw[8:]...),
		"short":     raw[:10],
	}
	cases["bitflip"][len(raw)/2] ^= 0x10
	// Checksum-valid headers whose sizes the file does not back: 2048^3
	// points in a 132-byte file (allocating the claimed velocity would
	// take 64 GB), and dims that multiply to a plausible count but are
	// not all positive.
	cases["hugedims"] = crafted([3]int64{2048, 2048, 2048}, 2048*2048*2048, 0, true)
	cases["negdims"] = crafted([3]int64{-1, -1, 1}, 1, 3, false)
	for name, data := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var ferr *FormatError
		if _, err := Load(p); !errors.As(err, &ferr) {
			t.Errorf("%s: got %v, want *FormatError", name, err)
		}
	}

	// Version bump must be refused (with the CRC recomputed, so only the
	// version check can catch it).
	bumped := append([]byte{}, raw[:len(raw)-8]...)
	bumped[8] = 99
	if err := os.WriteFile(filepath.Join(dir, "ver"), appendCRC(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "ver")); err == nil {
		t.Error("future version loaded without error")
	}
}

// TestPrecisionHeaderRoundTrip pins the v2 precision header: the write-time
// precision string survives the round trip, with the empty string decoding
// as the float64 default.
func TestPrecisionHeaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct{ in, want string }{
		{"", "float64"},
		{"float64", "float64"},
		{"float32", "float32"},
	} {
		st := sample()
		st.Precision = tc.in
		path := filepath.Join(dir, fmt.Sprintf("p%d.ckpt", i))
		if err := Save(path, st); err != nil {
			t.Fatalf("precision %q: %v", tc.in, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("precision %q: %v", tc.in, err)
		}
		if got.Precision != tc.want {
			t.Errorf("precision %q round-tripped to %q, want %q", tc.in, got.Precision, tc.want)
		}
	}

	// A precision string outside the format's vocabulary must refuse to
	// save rather than write an undecodable header.
	bad := sample()
	bad.Precision = "float16"
	if err := Save(filepath.Join(dir, "bad.ckpt"), bad); err == nil {
		t.Error("unknown precision string saved without error")
	}
}

// TestLoadRejectsUnknownPrecisionCode patches the on-disk precision code to
// an undefined value (with the CRC recomputed, so only the field validation
// can catch it) and requires a typed format error.
func TestLoadRejectsUnknownPrecisionCode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reg.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Precision code offset: magic (8) + version (4) + N (3x8) + Tasks (8).
	body := append([]byte{}, raw[:len(raw)-8]...)
	body[44] = 7
	patched := filepath.Join(dir, "badcode.ckpt")
	if err := os.WriteFile(patched, appendCRC(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var ferr *FormatError
	if _, err := Load(patched); !errors.As(err, &ferr) {
		t.Fatalf("unknown precision code: got %v, want *FormatError", err)
	}
}

// crafted returns a checksum-valid file holding a header with the given
// dims and no history, then comps velocity components of count values
// each, and then, if claim is set, one more count with no values behind it.
func crafted(n [3]int64, count int64, comps int, claim bool) []byte {
	body := append([]byte(magic), byte(Version), 0, 0, 0)
	le := func(v int64) {
		for i := 0; i < 8; i++ {
			body = append(body, byte(uint64(v)>>(8*i)))
		}
	}
	for _, d := range n {
		le(d)
	}
	for i := 0; i < 10; i++ { // Tasks .. Seed and the history count: zero
		le(0)
	}
	for c := 0; c < comps; c++ {
		le(count)
		for i := int64(0); i < count; i++ {
			le(0)
		}
	}
	if claim {
		le(count)
	}
	return appendCRC(body)
}

func appendCRC(body []byte) []byte {
	sum := crc64.Checksum(body, crcTable)
	out := append([]byte{}, body...)
	for i := 0; i < 8; i++ {
		out = append(out, byte(sum>>(8*i)))
	}
	return out
}

// FuzzLoad feeds arbitrary bytes to Load, both as given and with the
// trailing checksum recomputed so the decoder past the CRC check is
// reached. Load must return a *FormatError, or a state that Save writes
// back to exactly the bytes it was read from.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.ckpt")
	if err := Save(path, sample()); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(crafted([3]int64{2048, 2048, 2048}, 2048*2048*2048, 0, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 8 {
			inputs = append(inputs, appendCRC(data[:len(data)-8]))
		}
		dir := t.TempDir()
		for i, in := range inputs {
			p := filepath.Join(dir, fmt.Sprintf("in%d.ckpt", i))
			if err := os.WriteFile(p, in, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Load(p)
			if err != nil {
				var ferr *FormatError
				if !errors.As(err, &ferr) {
					t.Fatalf("untyped error %T: %v", err, err)
				}
				continue
			}
			out := filepath.Join(dir, "resaved.ckpt")
			if err := Save(out, st); err != nil {
				t.Fatalf("loaded state does not save: %v", err)
			}
			back, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, in) {
				t.Fatalf("round trip changed the file: %d bytes in, %d out", len(in), len(back))
			}
		}
	})
}
