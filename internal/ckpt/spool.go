package ckpt

// Checkpoint spooling for the serving layer: a job runs with its
// CheckpointPath pointed into a per-server spool directory, so an attempt
// cut short by a crash leaves behind the last good optimizer state and the
// attempt that journal replay starts resumes from it bit-identically
// instead of from scratch. The helpers
// here keep the path discipline and the cheap pre-Load validation in one
// place; full structural validation (CRC, payload plausibility) stays in
// Load.

import (
	"bytes"
	"os"
	"path/filepath"
)

// SpoolPath returns the checkpoint spool file for one job under dir. Job
// IDs are server-generated ("job-000042"), so the name is filesystem-safe
// by construction.
func SpoolPath(dir, jobID string) string {
	return filepath.Join(dir, jobID+".ckpt")
}

// EnsureSpoolDir creates the spool directory (and parents) if needed.
func EnsureSpoolDir(dir string) error {
	return os.MkdirAll(dir, 0o755)
}

// HasCheckpoint reports whether path holds something that looks like a
// resumable checkpoint: it exists, is large enough to frame a payload, and
// opens with the current magic and version. It deliberately does not read
// the whole file — Load does the CRC and payload validation — so callers
// can use it as a cheap "is a resume worth attempting" probe before wiring
// Resume into a solve.
func HasCheckpoint(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() < int64(len(magic)+4+8) {
		return false
	}
	hdr := make([]byte, len(magic)+4)
	if _, err := f.Read(hdr); err != nil {
		return false
	}
	if !bytes.Equal(hdr[:len(magic)], []byte(magic)) {
		return false
	}
	v := uint32(hdr[len(magic)]) | uint32(hdr[len(magic)+1])<<8 |
		uint32(hdr[len(magic)+2])<<16 | uint32(hdr[len(magic)+3])<<24
	return v == Version
}

// Reap removes a spool file, treating "already gone" as success: terminal
// jobs reap their spool exactly once, but crash/replay interleavings can
// race a reap against a restart that never wrote one.
func Reap(path string) error {
	err := os.Remove(path)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}
