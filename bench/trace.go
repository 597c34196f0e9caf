package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code
// around the call. Times are Unix nanoseconds so that spans from the
// privtreed child and from the load generator share one clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Proc is 1 for the benchmark process, 2 for the privtreed child.
	Proc int `json:"proc"`
	// Lane groups spans that nest (one iteration, one request) onto
	// one row of the trace viewer.
	Lane int64 `json:"lane"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	proc  int
	mu    sync.Mutex
	next  int64
	spans []span
}

// newTracer returns a tracer for process proc. Span IDs start at
// proc<<40, so IDs from the two processes never collide when merged.
func newTracer(proc int) *tracer { return &tracer{proc: proc, next: int64(proc) << 40} }

// open starts a span whose ID children can name as their parent.
func (t *tracer) open(name string, parent int64, req string, lane int64) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Now().UnixNano(), Proc: t.proc, Lane: lane}
}

// close ends a span opened by open and records it.
func (t *tracer) close(s *span) {
	if t == nil || s == nil {
		return
	}
	s.End = time.Now().UnixNano()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// do runs fn as one call into layer name under parent.
func (t *tracer) do(name string, parent *span, fn func() error) error {
	if t == nil {
		return fn()
	}
	var pid, lane int64
	var req string
	if parent != nil {
		pid, lane, req = parent.ID, parent.Lane, parent.Req
	}
	s := t.open(name, pid, req, lane)
	err := fn()
	t.close(s)
	return err
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// busy is the length of the union of the spans' intervals.
func busy(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
		} else if x.End > hi {
			hi = x.End
		}
	}
	return time.Duration(total + hi - lo)
}

// coverage is the share of the named parent spans' time that their
// direct children account for.
func coverage(spans []span, parentName string) float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var covered, total time.Duration
	for _, s := range spans {
		if s.Name == parentName {
			total += s.dur()
			covered += busy(kids[s.ID])
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// writeChromeTrace writes spans as Chrome trace-event JSON, readable by
// chrome://tracing and Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Proc, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
