//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around calls into a layer, and stay in memory until the run ends.
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Lane   int // Chrome-trace thread row: 0 = harness, 1+ = serve job slots
	Start  time.Duration
	End    time.Duration
	Args   map[string]float64 // counter deltas taken at the span's boundaries
}

// tracer collects spans. A nil tracer records nothing, so the untraced
// run executes the same code with the recording calls reduced to a nil
// check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0), End: -1})
	return len(t.spans)
}

// end closes span id, attaching the counter deltas measured at its end.
func (t *tracer) end(id int, args map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	s.Args = args
}

// add records a span whose boundaries were observed elsewhere (progress
// callbacks, poll observations).
func (t *tracer) add(parent int, name string, lane int, start, end time.Time, args map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Args: args})
	return len(t.spans)
}

// selfRow is one line of the self-time table: every span of one name.
type selfRow struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of it that its children cover; children may overlap each
// other (concurrent serve jobs), so their union is taken.
func (t *tracer) selfTimes() []selfRow {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Calls++
		r.Total += s.End - s.Start
		r.Self += s.End - s.Start - covered
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-34s %6s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, r := range t.selfTimes() {
		fmt.Fprintf(w, "%-34s %6d %12.3f %12.3f\n", r.Name, r.Calls,
			float64(r.Total.Microseconds())/1e3, float64(r.Self.Microseconds())/1e3)
	}
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): complete events in microseconds, span and parent ids in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		args := map[string]float64{"id": float64(s.ID), "parent": float64(s.Parent)}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
