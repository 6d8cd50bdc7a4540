package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program (or one
// wait it observed): name, start and end relative to the tracer's
// origin, the span that caused it, and the iteration it belongs to.
// Spans of one iteration share Iter; 0 means set-up or teardown.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op returning id 0.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	iters  int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newIter returns a fresh iteration id (ids are never 0).
func (t *tracer) newIter() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.iters++
	return t.iters
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, iter int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-finished span (a wait observed between two
// timestamps rather than around one call).
func (t *tracer) record(name string, parent, iter int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Iter: iter, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover. Children may nest, overlap each other or stick
// out of their parent; only the union of their overlap with the parent
// counts. Unfinished spans (End < Start) have no duration.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			out[s.ID] = 0
			continue
		}
		out[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi] that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTime is the self-time summary of every span of one name.
type layerTime struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	SelfTotalMs float64 `json:"self_total_ms"`
	SelfP50Ms   float64 `json:"self_p50_ms"`
	TotalMs     float64 `json:"total_ms"`
}

// summarizeSpans groups self times by span name, largest total first.
func summarizeSpans(spans []span) []layerTime {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	totals := map[string]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e6)
		if s.End >= s.Start {
			totals[s.Name] += float64(s.End-s.Start) / 1e6
		}
	}
	out := make([]layerTime, 0, len(byName))
	for name, xs := range byName {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		out = append(out, layerTime{Name: name, Count: len(xs), SelfTotalMs: sum, SelfP50Ms: median(xs), TotalMs: totals[name]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfTotalMs != out[j].SelfTotalMs {
			return out[i].SelfTotalMs > out[j].SelfTotalMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// traceDump is the traced run's artifact: every span, the per-name
// self-time summary, and the program's own phase totals
// (pipeline.Report.Timings) summed over the traced iterations.
type traceDump struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Summary  []layerTime        `json:"self_time_by_span"`
	PhasesMs map[string]float64 `json:"report_phase_total_ms"`
	Spans    []span             `json:"spans"`
}

// write stores the dump as JSON under dir and returns the file path.
func (d traceDump) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+d.Workload+".json")
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
