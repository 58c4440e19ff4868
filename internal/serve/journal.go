package serve

// Write-ahead job journal: an append-only, CRC-framed NDJSON log of the
// server's job lifecycle, giving regserve crash durability. Three record
// types are journaled:
//
//	accepted  the validated JobSpec, its server-assigned ID, and the
//	          client's idempotency key — written before Submit returns 202
//	attempt   an execution attempt is starting
//	terminal  the job reached done | failed | canceled
//
// On restart the server replays the journal: jobs with a terminal record
// are recreated as terminal stubs (their results were not journaled, only
// their outcome), jobs without one are re-queued and re-run. Idempotency
// keys are rebuilt from the accepted records, so a client that re-POSTs a
// job it submitted before the crash gets the original ID back instead of a
// duplicate run.
//
// Framing: each record is one line,
//
//	<crc64-ecma hex, 16 chars> <space> <JSON> <newline>
//
// with the CRC taken over the JSON bytes. A crash can tear at most the
// final line (appends are sequential writes to one fd); replay stops at
// the first line that fails the frame check, and the opener truncates the
// torn bytes before appending — a torn line is by construction a record
// whose fsync never completed, so it was never acknowledged and dropping
// it loses nothing. Records are fsynced before Submit acknowledges — the
// 202 is a durability promise.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// journalFile is the journal's file name inside the journal directory.
const journalFile = "journal.ndjson"

var journalCRC = crc64.MakeTable(crc64.ECMA)

// journalRecord is the JSON payload of one journal line.
type journalRecord struct {
	Type    string   `json:"type"` // accepted | attempt | terminal
	ID      string   `json:"id"`
	Idem    string   `json:"idem,omitempty"`
	Spec    *JobSpec `json:"spec,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	State   JobState `json:"state,omitempty"`
	ErrKind string   `json:"error_kind,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// ReplayedJob is one job reconstructed from the journal, in acceptance
// order.
type ReplayedJob struct {
	ID       string
	Spec     JobSpec
	Idem     string
	Attempts int // attempts started before the crash
	Terminal bool
	State    JobState // valid when Terminal
	ErrKind  string
	Error    string
}

// Journal is the open write-ahead log. Append errors are sticky: the
// first failure disables further writes (and is surfaced in JournalStats)
// rather than blocking the serving path on a dead disk.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	err     error
	records atomic.Int64 // appended this process
}

// JournalStats is the journal section of GET /stats.
type JournalStats struct {
	Enabled bool   `json:"enabled"`
	Path    string `json:"path,omitempty"`
	// Records counts journal records appended by this process.
	Records int64 `json:"records"`
	// Replayed counts records recovered from the journal at startup and
	// Recovered the non-terminal jobs that were re-queued from them.
	Replayed  int `json:"replayed"`
	Recovered int `json:"recovered"`
	// Resumed counts attempts that resumed from a spool checkpoint
	// (Config.SpoolDir) instead of starting from scratch.
	Resumed int64 `json:"resumed"`
	// WriteError reports a sticky append failure (journaling is disabled
	// from the first failed write onward).
	WriteError string `json:"write_error,omitempty"`
}

// OpenJournal opens (creating if needed) the journal under dir and replays
// every intact record. It returns the journal positioned for appending,
// the replayed jobs in acceptance order, and the number of intact records
// read.
func OpenJournal(dir string) (*Journal, []*ReplayedJob, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	jobs, replayed, tornOff, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	if tornOff >= 0 {
		// Drop the torn (never-acknowledged) tail so the next append starts
		// on a clean frame boundary and future replays read past it.
		if err := f.Truncate(tornOff); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
		}
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
	}
	if tornOff < 0 && size > 0 {
		// A crash can also tear off just the trailing newline of the final
		// record; re-anchor so the next append never glues onto it.
		var last [1]byte
		if _, err := f.ReadAt(last[:], size-1); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
		}
		if last[0] != '\n' {
			if _, err := f.WriteString("\n"); err != nil {
				f.Close()
				return nil, nil, 0, fmt.Errorf("serve: journal: %w", err)
			}
		}
	}
	return &Journal{f: f, path: path}, jobs, replayed, nil
}

// replay scans the journal and folds records into per-job replay state.
// It returns the jobs in acceptance order, the intact-record count, and
// the byte offset of a torn (unframed) tail (-1 when the file is clean).
func replay(f *os.File) (jobs []*ReplayedJob, records int, tornOff int64, err error) {
	if _, err := f.Seek(0, 0); err != nil {
		return nil, 0, -1, fmt.Errorf("serve: journal: %w", err)
	}
	byID := map[string]*ReplayedJob{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<30)
	var offset int64
	for sc.Scan() {
		line := sc.Bytes()
		rec, ok := decodeJournalLine(line)
		if !ok {
			// A frame failure can only be the torn final line of a crashed
			// writer; everything after it is untrusted, so replay stops and
			// the opener truncates from here.
			return jobs, records, offset, nil
		}
		offset += int64(len(line)) + 1
		records++
		switch rec.Type {
		case "accepted":
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			j := &ReplayedJob{ID: rec.ID, Spec: *rec.Spec, Idem: rec.Idem}
			byID[rec.ID] = j
			jobs = append(jobs, j)
		case "attempt":
			if j := byID[rec.ID]; j != nil && rec.Attempt > j.Attempts {
				j.Attempts = rec.Attempt
			}
		case "terminal":
			if j := byID[rec.ID]; j != nil {
				j.Terminal = true
				j.State = rec.State
				j.ErrKind = rec.ErrKind
				j.Error = rec.Error
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, -1, fmt.Errorf("serve: journal replay: %w", err)
	}
	return jobs, records, -1, nil
}

// decodeJournalLine validates one "crc json" frame.
func decodeJournalLine(line []byte) (journalRecord, bool) {
	var rec journalRecord
	sp := bytes.IndexByte(line, ' ')
	if sp != 16 {
		return rec, false
	}
	var want uint64
	if _, err := fmt.Sscanf(string(line[:16]), "%016x", &want); err != nil {
		return rec, false
	}
	payload := line[17:]
	if crc64.Checksum(payload, journalCRC) != want {
		return rec, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

// append frames, writes, and fsyncs one record. The first failure is
// sticky and returned to the caller (Submit surfaces it; attempt/terminal
// writers log and carry on — losing the journal must not kill live jobs).
func (j *Journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal encode: %w", err)
	}
	line := fmt.Sprintf("%016x %s\n", crc64.Checksum(payload, journalCRC), payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.f.WriteString(line); err != nil {
		j.err = fmt.Errorf("serve: journal append: %w", err)
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("serve: journal sync: %w", err)
		return j.err
	}
	j.records.Add(1)
	return nil
}

// Accepted journals a validated submission (before the 202 is returned).
func (j *Journal) Accepted(id, idem string, spec *JobSpec) error {
	return j.append(journalRecord{Type: "accepted", ID: id, Idem: idem, Spec: spec})
}

// Attempt journals the start of execution attempt n for a job.
func (j *Journal) Attempt(id string, n int) error {
	return j.append(journalRecord{Type: "attempt", ID: id, Attempt: n})
}

// Terminal journals a job's final state.
func (j *Journal) Terminal(id string, state JobState, errKind, errMsg string) error {
	return j.append(journalRecord{Type: "terminal", ID: id, State: state, ErrKind: errKind, Error: errMsg})
}

// Close releases the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// stats snapshots the writer-side counters (replay counts live on the
// server, which folds them in).
func (j *Journal) stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	st := JournalStats{Enabled: true, Path: j.path, Records: j.records.Load()}
	j.mu.Lock()
	if j.err != nil {
		st.WriteError = j.err.Error()
	}
	j.mu.Unlock()
	return st
}
