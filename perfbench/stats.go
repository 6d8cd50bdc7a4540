package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a percentile's rank
// before it is reported: a p90 needs at least 100 samples.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs. ok is false when fewer than minTail samples lie beyond that rank,
// in which case the value is not reported.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minTail
}

// median is the nearest-rank median with no tail requirement, for
// quantities measured a handful of times per run (set-up, memory).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// frac is num/den, or 0 when nothing was attempted.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric name: letters, digits,
// '_', '.' and '-', starting with a letter or digit, at most 64 long.
func validName(s string) bool { return metricName.MatchString(s) }

// value is one reported metric: its number, unit and how many samples
// it summarizes.
type value struct {
	Value float64
	Unit  string
	N     int
}

// results collects the metrics of one run in insertion order.
type results struct {
	names []string
	vals  map[string]value
}

func newResults() *results { return &results{vals: map[string]value{}} }

func (r *results) add(name, unit string, v float64, n int) {
	if _, dup := r.vals[name]; !dup {
		r.names = append(r.names, name)
	}
	r.vals[name] = value{Value: v, Unit: unit, N: n}
}

// timing adds name.p50 and name.p90 for a latency sample set. Either is
// left out when too few samples lie beyond it.
func (r *results) timing(name, unit string, xs []float64) {
	for _, p := range []struct {
		suffix string
		p      float64
	}{{"p50", 50}, {"p90", 90}} {
		if v, ok := percentile(xs, p.p); ok {
			r.add(name+"."+p.suffix, unit, v, len(xs))
		}
	}
}

// metric is the JSON form of one metric in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's last output line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints a human-readable table of every collected metric (name,
// value, unit, sample count), then the result line restricted to the
// catalog entries in want. It fails if a wanted metric is missing,
// misnamed or not a finite number; extra collected metrics appear only
// in the table.
func emit(w io.Writer, r *results, want []catalogEntry, correct bool, attempted, failed int) error {
	for _, name := range r.names {
		v := r.vals[name]
		fmt.Fprintf(w, "%-34s %14.6g %-8s n=%d\n", name, v.Value, v.Unit, v.N)
	}
	out := outcome{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, c := range want {
		v, ok := r.vals[c.Name]
		switch {
		case !validName(c.Name):
			return fmt.Errorf("invalid metric name %q", c.Name)
		case !ok:
			return fmt.Errorf("metric %s was not measured", c.Name)
		case v.Unit != c.Unit:
			return fmt.Errorf("metric %s measured in %s, catalog says %s", c.Name, v.Unit, c.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", c.Name, v.Value)
		}
		out.Metrics[c.Name] = metric{Value: v.Value, Unit: v.Unit}
	}
	if attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
