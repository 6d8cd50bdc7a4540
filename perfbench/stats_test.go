package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true}, // exactly 10 samples beyond rank 90
		{99, 90, 90, false}, // rank 90 of 99 leaves 9 beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
		{200, 90, 180, true},
		{1, 50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p%.0f) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestTimingRefusesThinTail(t *testing.T) {
	r := newResults()
	r.timing("wait_ms", "ms", seq(99))
	if _, ok := r.vals["wait_ms.p90"]; ok {
		t.Error("p90 reported with 9 samples beyond it")
	}
	if v := r.vals["wait_ms.p50"]; v.Value != 50 || v.N != 99 {
		t.Errorf("p50 = %+v, want 50 over 99 samples", v)
	}
	r.timing("wait_ms", "ms", seq(100))
	if v := r.vals["wait_ms.p90"]; v.Value != 90 {
		t.Errorf("p90 over 100 samples = %v, want 90", v.Value)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("nearest-rank median of 4 = %v, want 2", got)
	}
}

func TestValidName(t *testing.T) {
	good := []string{"setup_s", "question_wait_ms.p90", "benefit.annotate_ms", "1-x", "a"}
	bad := []string{"", ".p50", "_x", "wait ms", "wait/ms", "é", "x:y", strings.Repeat("a", 65)}
	for _, s := range good {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range bad {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, c := range append(append([]catalogEntry(nil), endToEnd...), perLayer...) {
		if !validName(c.Name) {
			t.Errorf("catalog metric %q has an invalid name", c.Name)
		}
	}
}

func TestEmitShape(t *testing.T) {
	r := newResults()
	r.add("b_ms", "ms", 1.25, 3)
	r.add("a_s", "s", 0.5, 3)
	r.add("extra", "count", 7, 1)
	want := []catalogEntry{{Name: "a_s", Unit: "s"}, {Name: "b_ms", Unit: "ms"}}
	var buf bytes.Buffer
	if err := emit(&buf, r, want, true, 10, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 table lines and the result:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[2], "extra") || !strings.Contains(lines[2], "n=1") {
		t.Errorf("table line %q lacks name or sample count", lines[2])
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[3]), &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 {
		t.Errorf("result keys = %v, want correct, attempted, failed, metrics", top)
	}
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]map[string]any
	}
	if err := json.Unmarshal([]byte(lines[3]), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 10 || out.Failed != 0 || len(out.Metrics) != 2 {
		t.Errorf("result = %+v", out)
	}
	if m := out.Metrics["b_ms"]; len(m) != 2 || m["value"] != 1.25 || m["unit"] != "ms" {
		t.Errorf("metric b_ms = %v, want exactly value and unit", m)
	}
}

func TestEmitRefusesMissingOrBadMetrics(t *testing.T) {
	r := newResults()
	r.add("a_s", "s", 1, 1)
	r.add("nan_s", "s", math.NaN(), 1)
	cases := map[string][]catalogEntry{
		"not a number": {{Name: "nan_s", Unit: "s"}},
		"missing":      {{Name: "b_s", Unit: "s"}},
		"wrong unit":   {{Name: "a_s", Unit: "ms"}},
		"bad name":     {{Name: "a s", Unit: "s"}},
	}
	for what, want := range cases {
		if err := emit(&bytes.Buffer{}, r, want, true, 1, 0); err == nil {
			t.Errorf("%s: emit accepted it", what)
		}
	}
	if err := emit(&bytes.Buffer{}, r, []catalogEntry{{Name: "a_s", Unit: "s"}}, true, 0, 0); err == nil {
		t.Error("emit accepted a run with nothing attempted")
	}
}
