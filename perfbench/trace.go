package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer of the program. Spans of one served
// request share its request id; a handler span's parent is the client span
// that sent the request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced iterations run the same code.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent int64, req string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.ids.Add(1)
	start := time.Since(t.t0)
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

// finish fills in every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return t.spans
}

// writeSpans stores the spans as JSON in dir/name; an empty dir skips it.
func writeSpans(dir, name string, spans []span) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

// byName groups span durations (or self times) in milliseconds by name.
func byName(spans []span, self bool) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		d := s.End - s.Start
		if self {
			d = s.Self
		}
		out[s.Name] = append(out[s.Name], float64(d)/1e6)
	}
	return out
}

// recorder collects per-operation latencies by kind and counts every
// operation attempted and failed. An operation fails when the call errs or
// its output does not match the reference; its latency is then dropped.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64 // seconds
	attempted int
	failed    int
}

func newRecorder() *recorder { return &recorder{samples: make(map[string][]float64)} }

func (r *recorder) add(kind string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 20 {
			fmt.Printf("FAILED %s: %v\n", kind, err)
		}
		return
	}
	r.samples[kind] = append(r.samples[kind], d.Seconds())
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by the nearest-rank rule, or NaN
// when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// median returns the middle value of xs (the mean of the middle pair for an
// even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return (s[(n-1)/2] + s[n/2]) / 2
}
