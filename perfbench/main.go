// Command perfbench is VisClean's benchmark: how long a user waits per
// composite question, measured end to end on three closed-loop
// workloads (progressive, dashboard, service), with a separate traced
// run for per-layer numbers. See perfbench/README.md.
//
//	go build -o .bench_build/perfbench ./perfbench
//	.bench_build/perfbench --workload progressive --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the JSON result; the lines above
// it list every metric with its unit and sample count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"visclean/internal/experiments"
	"visclean/internal/obs"
)

// workload is one benchmark workload; run measures one phase.
type workload interface {
	run(o phaseOpts) (*phase, error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "progressive":
		q1, err := experiments.TaskByID("Q1")
		if err != nil {
			return nil, err
		}
		return pipelineWorkload{views: []string{q1.VQL}, scale: 0.05, budget: 15}, nil
	case "dashboard":
		return pipelineWorkload{views: experiments.MultiViewViews(), scale: 0.05, budget: 15}, nil
	case "service":
		return serviceWorkload{clients: 2, scale: 0.05, budget: 8, poll: time.Millisecond}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want progressive, dashboard or service)", name)
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "progressive, dashboard or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every dataset and oracle derives from it")
	flag.IntVar(&cfg.seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for snapshots and the trace dump")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, cfg config) error {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%d trace=%v scratch=%s (%s)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, dir, fsType(dir))

	full := time.Duration(cfg.seconds) * time.Second
	o := phaseOpts{seed: cfg.seed, dur: full, minUnits: detSessions, hardCap: 120 * time.Second, dir: dir}
	if sw, ok := w.(serviceWorkload); ok {
		o.minUnits = (detSessions + sw.clients - 1) / sw.clients
	}
	r := newResults()
	var ph *phase
	var checks []string
	if !cfg.trace {
		if ph, err = w.run(o); err != nil {
			return err
		}
		// The same seed must give the same behaviour: run the first unit
		// (session, or round of sessions) again and compare.
		again, err := w.run(phaseOpts{seed: cfg.seed, units: 1, dir: dir})
		if err != nil {
			return err
		}
		checks = compareSessions("repeated", ph.sessions[:min(len(again.sessions), len(ph.sessions))], again.sessions)
		endToEndMetrics(ph, r)
	} else {
		o.dur, o.hardCap = full/2, 60*time.Second
		plain, err := w.run(o)
		if err != nil {
			return err
		}
		obs.SetEnabled(true)
		obs.DefaultTracer.SetEnabled(true)
		tr := newTracer()
		before, err := observe()
		if err != nil {
			return err
		}
		ph, err = w.run(phaseOpts{seed: cfg.seed, units: plain.units, tr: tr, dir: dir})
		if err != nil {
			return err
		}
		if err := before.since(ph); err != nil {
			return err
		}
		obs.SetEnabled(false)
		obs.DefaultTracer.SetEnabled(false)
		checks = compareSessions("traced", plain.sessions, ph.sessions)
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		ph.problems = append(ph.problems, plain.problems...)

		layerMetrics(ph, r)
		plainRate := float64(len(plain.iterations())) / plain.wall.Seconds()
		tracedRate := float64(len(ph.iterations())) / ph.wall.Seconds()
		r.add("obs.overhead_frac", "fraction", 1-tracedRate/plainRate, len(ph.iterations()))
		summary := summarizeSpans(tr.spans)
		path, err := traceDump{
			Workload: cfg.workload,
			Seed:     cfg.seed,
			Summary:  summary,
			PhasesMs: phaseTotals(ph),
			Spans:    tr.spans,
		}.write(filepath.Join(cfg.dir, "traces"))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace=%s spans=%d\n", path, len(tr.spans))
		for _, lt := range summary[:min(8, len(summary))] {
			fmt.Fprintf(out, "  self %-22s %10.1f ms total  %8.3f ms p50  n=%d\n", lt.Name, lt.SelfTotalMs, lt.SelfP50Ms, lt.Count)
		}
	}
	for _, msg := range checks {
		ph.fail("%s", msg)
	}
	for _, msg := range ph.problems {
		fmt.Fprintln(out, "FAILED:", msg)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	return emit(out, r, want, ph.failed == 0, ph.attempted, ph.failed)
}

// compareSessions checks that two runs over the same seeds behaved
// identically, session by session.
func compareSessions(what string, a, b []sessionRecord) []string {
	var out []string
	if len(a) != len(b) {
		return []string{fmt.Sprintf("%s run completed %d sessions, want %d", what, len(b), len(a))}
	}
	for i := range a {
		if a[i].signature() != b[i].signature() {
			out = append(out, fmt.Sprintf("%s run of session %d (seed %d) behaved differently", what, i, a[i].seed))
		}
	}
	return out
}

// phaseTotals sums pipeline.Report.Timings over a phase, by phase name.
func phaseTotals(ph *phase) map[string]float64 {
	out := map[string]float64{}
	for _, it := range ph.iterations() {
		t := it.rep.Timings
		out["detect"] += ms(t.Detect)
		out["build_erg"] += ms(t.BuildERG)
		out["annotate"] += ms(t.Benefit)
		out["select"] += ms(t.Select)
		out["apply"] += ms(t.Apply)
		out["train"] += ms(t.Train)
		out["view"] += ms(t.View)
		out["distance"] += ms(t.Distance)
	}
	return out
}
