// Package ckpt provides versioned, checksummed serialization of the
// optimizer state for checkpoint/restart. A checkpoint captures everything
// the Newton driver needs to reproduce the uninterrupted trajectory bit
// for bit: the velocity iterate (global arrays, gathered on rank 0), the
// continuation level and regularization weight, the iteration counter, the
// initial objective scalars that anchor the forcing sequence and the
// convergence test, and the iteration history.
//
// The on-disk format is little-endian binary:
//
//	magic   "DREGCKPT"                      (8 bytes)
//	version uint32                          (currently 2)
//	payload fixed fields, history, velocity (see State)
//	crc     uint64 CRC-64/ECMA of everything above
//
// Version 2 added the write-time solver precision to the header: a
// checkpoint taken on the float32 hot path resumed under float64 (or vice
// versa) would not reproduce the writing run's trajectory, so the
// mismatch is a typed *PrecisionMismatchError at resume validation, never
// a silent reinterpretation. Version 1 files (which predate the precision
// option) are rejected by the version check.
//
// Save writes to a temporary file in the same directory, syncs, and
// renames over the target, so a crash mid-write never corrupts an existing
// checkpoint. Load verifies magic, version, and checksum before decoding,
// converting torn or bit-rotted files into typed errors rather than
// silently resuming from garbage.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"

	"diffreg/internal/optim"
)

const magic = "DREGCKPT"

// Version is the current checkpoint format version.
const Version uint32 = 2

var crcTable = crc64.MakeTable(crc64.ECMA)

// State is the checkpointed optimizer state.
type State struct {
	N     [3]int // grid dimensions
	Tasks int    // rank count of the writing run (informational)

	// Precision records the hot-path precision the writing run solved at
	// ("float64" or "float32"; empty decodes as "float64" for symmetry
	// with the solver default). Resume validation must reject a precision
	// mismatch — the trajectories are not interchangeable.
	Precision string

	Beta      float64 // regularization weight of the active level
	BetaLevel int     // continuation schedule index (0 for single solves)
	Iter      int     // completed outer iterations within the level

	JInit      float64
	MisfitInit float64
	GnormInit  float64
	History    []optim.IterRecord

	// Seed is reserved for stochastic solver extensions; the deterministic
	// solver writes 0.
	Seed int64

	// V holds the three global velocity component arrays (row-major,
	// dimension 2 fastest — the field.Gather layout).
	V [3][]float64
}

// FormatError reports a checkpoint file that failed structural validation.
type FormatError struct {
	Path   string
	Detail string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("ckpt: %s: %s", e.Path, e.Detail)
}

// PrecisionMismatchError reports a resume attempt at a different hot-path
// precision than the checkpoint was written at.
type PrecisionMismatchError struct {
	Path      string
	Written   string // precision recorded in the checkpoint header
	Requested string // precision of the resuming solve
}

func (e *PrecisionMismatchError) Error() string {
	return fmt.Sprintf("ckpt: %s: checkpoint was written at precision %s but the resume requests %s — rerun at the original precision or start fresh",
		e.Path, e.Written, e.Requested)
}

// precisionCode maps the header precision string to its wire code. The
// empty string is the float64 default, matching the solver's zero value.
func precisionCode(s string) (int64, error) {
	switch s {
	case "", "float64":
		return 0, nil
	case "float32":
		return 1, nil
	default:
		return 0, fmt.Errorf("ckpt: unknown precision %q", s)
	}
}

// encode serializes the payload (everything between version and checksum).
func encode(st *State) ([]byte, error) {
	buf := &bytes.Buffer{}
	w := func(v any) { binary.Write(buf, binary.LittleEndian, v) }
	for d := 0; d < 3; d++ {
		w(int64(st.N[d]))
	}
	w(int64(st.Tasks))
	code, err := precisionCode(st.Precision)
	if err != nil {
		return nil, err
	}
	w(code)
	w(st.Beta)
	w(int64(st.BetaLevel))
	w(int64(st.Iter))
	w(st.JInit)
	w(st.MisfitInit)
	w(st.GnormInit)
	w(st.Seed)
	w(int64(len(st.History)))
	for _, h := range st.History {
		w(int64(h.Iter))
		w(h.J)
		w(h.Misfit)
		w(h.Gnorm)
		w(h.Forcing)
		w(int64(h.CGIters))
		w(h.Step)
		w(int64(h.LineTrial))
	}
	total := st.N[0] * st.N[1] * st.N[2]
	for d := 0; d < 3; d++ {
		if len(st.V[d]) != total {
			return nil, fmt.Errorf("ckpt: velocity component %d has %d values, want %d for dims %v",
				d, len(st.V[d]), total, st.N)
		}
		w(int64(len(st.V[d])))
		w(st.V[d])
	}
	return buf.Bytes(), nil
}

// Save atomically writes the state to path.
func Save(path string, st *State) error {
	payload, err := encode(st)
	if err != nil {
		return err
	}
	buf := &bytes.Buffer{}
	buf.WriteString(magic)
	binary.Write(buf, binary.LittleEndian, Version)
	buf.Write(payload)
	binary.Write(buf, binary.LittleEndian, crc64.Checksum(buf.Bytes(), crcTable))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// decoder reads little-endian fields with sticky error state.
type decoder struct {
	r   *bytes.Reader
	err error
}

func (d *decoder) i64() int64 {
	var v int64
	if d.err == nil {
		d.err = binary.Read(d.r, binary.LittleEndian, &v)
	}
	return v
}

func (d *decoder) f64() float64 {
	var v float64
	if d.err == nil {
		d.err = binary.Read(d.r, binary.LittleEndian, &v)
	}
	return v
}

// Load reads and validates a checkpoint.
func Load(path string) (*State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if len(raw) < len(magic)+4+8 {
		return nil, &FormatError{path, fmt.Sprintf("file too short (%d bytes)", len(raw))}
	}
	if string(raw[:len(magic)]) != magic {
		return nil, &FormatError{path, "bad magic (not a checkpoint file)"}
	}
	if v := binary.LittleEndian.Uint32(raw[len(magic):]); v != Version {
		return nil, &FormatError{path, fmt.Sprintf("unsupported version %d (want %d)", v, Version)}
	}
	body, trailer := raw[:len(raw)-8], raw[len(raw)-8:]
	if got, want := crc64.Checksum(body, crcTable), binary.LittleEndian.Uint64(trailer); got != want {
		return nil, &FormatError{path, fmt.Sprintf("checksum mismatch (file %016x, computed %016x) — truncated or corrupted", want, got)}
	}

	d := &decoder{r: bytes.NewReader(body[len(magic)+4:])}
	st := &State{}
	for i := 0; i < 3; i++ {
		st.N[i] = int(d.i64())
	}
	st.Tasks = int(d.i64())
	switch code := d.i64(); {
	case d.err != nil:
	case code == 0:
		st.Precision = "float64"
	case code == 1:
		st.Precision = "float32"
	default:
		return nil, &FormatError{path, fmt.Sprintf("unknown precision code %d", code)}
	}
	st.Beta = d.f64()
	st.BetaLevel = int(d.i64())
	st.Iter = int(d.i64())
	st.JInit = d.f64()
	st.MisfitInit = d.f64()
	st.GnormInit = d.f64()
	st.Seed = d.i64()
	nh := d.i64()
	// Every dimension is at least 1 and the point count at most 2^34,
	// checked factor by factor so the product cannot overflow.
	total, dimsOK := int64(1), true
	for _, n := range st.N {
		if n < 1 || int64(n) > (1<<34)/total {
			dimsOK = false
			break
		}
		total *= int64(n)
	}
	if d.err == nil && (nh < 0 || nh > 1<<20 || !dimsOK) {
		return nil, &FormatError{path, fmt.Sprintf("implausible header (dims %v, %d history records)", st.N, nh)}
	}
	for i := int64(0); i < nh && d.err == nil; i++ {
		h := optim.IterRecord{}
		h.Iter = int(d.i64())
		h.J = d.f64()
		h.Misfit = d.f64()
		h.Gnorm = d.f64()
		h.Forcing = d.f64()
		h.CGIters = int(d.i64())
		h.Step = d.f64()
		h.LineTrial = int(d.i64())
		st.History = append(st.History, h)
	}
	for c := 0; c < 3 && d.err == nil; c++ {
		n := d.i64()
		if n != total {
			return nil, &FormatError{path, fmt.Sprintf("velocity component %d has %d values, want %d", c, n, total)}
		}
		// A corrupt header can claim any size: allocate only what the file
		// holds.
		if d.err == nil && 8*n > int64(d.r.Len()) {
			return nil, &FormatError{path, fmt.Sprintf("velocity component %d claims %d values but only %d bytes remain", c, n, d.r.Len())}
		}
		st.V[c] = make([]float64, n)
		if d.err == nil {
			d.err = binary.Read(d.r, binary.LittleEndian, st.V[c])
		}
	}
	if d.err != nil {
		return nil, &FormatError{path, fmt.Sprintf("decode: %v", d.err)}
	}
	if d.r.Len() != 0 {
		return nil, &FormatError{path, fmt.Sprintf("%d trailing bytes after payload", d.r.Len())}
	}
	return st, nil
}
