package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the benchmark
// around the layer's public function. Times are nanoseconds since the
// tracer started. Parent is the ID of the span that caused this one, -1 for
// a root; spans of one operation share Iter.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Iter   int    `json:"iteration"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run pays no tracing cost beyond a nil
// check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, iter int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: iter, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap one another
// (parallel clients) and may stick out of the parent; both are handled by
// taking the union of the children clipped to the parent.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := s.Start, s.End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			if c.lo > reach {
				reach = c.lo
			}
			covered += c.hi - reach
			reach = c.hi
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanMicros returns the durations, in µs, of every span with the name.
func spanMicros(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfFrac is the share of the named spans' time that is their own: not
// covered by child spans. For the operation spans this is the harness's
// own cost (generating inputs, checking outputs) relative to the work.
func selfFrac(spans []span, name string) float64 {
	self := selfTimes(spans)
	var own, total int64
	for i, s := range spans {
		if s.Name == name {
			own += self[i]
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// workloadSpans are the spans of one workload's traced run.
type workloadSpans struct {
	workload string
	spans    []span
}

// writeSpans writes one JSON object per line: the span's fields and the
// workload whose traced run recorded it.
func writeSpans(path string, runs []workloadSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, run := range runs {
		for _, s := range run.spans {
			line := struct {
				Workload string `json:"workload"`
				span
			}{run.workload, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
