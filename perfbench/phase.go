package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"visclean/internal/obs"
	"visclean/internal/pipeline"
)

// minSamples makes every reported p90 have minTail samples beyond it.
const minSamples = 100

// phaseOpts bounds one measured phase. A phase runs whole units
// (sessions, or rounds of sessions for the service) until it has run
// for dur, completed minUnits and collected minSamples of every
// timing, or, when units is set, exactly that many units (the traced
// phase repeats the untraced one's). hardCap stops a slow machine
// early; a p90 left without enough samples then fails the run.
type phaseOpts struct {
	seed     int64
	dur      time.Duration
	minUnits int
	units    int
	hardCap  time.Duration
	tr       *tracer
	dir      string // scratch directory inside the checkout
}

func (o phaseOpts) done(ph *phase, units int, elapsed time.Duration) bool {
	if o.units > 0 {
		return units >= o.units
	}
	if units < o.minUnits {
		return false
	}
	if elapsed >= o.hardCap {
		return true
	}
	enough := func(xs []float64) bool { return len(xs) >= minSamples }
	return elapsed >= o.dur && enough(ph.waitMs) && enough(ph.refreshMs) &&
		(len(ph.migrateMs) == 0 || enough(ph.migrateMs))
}

// sessionSeed derives the i-th session's dataset and oracle seed from
// the workload seed (splitmix64, never 0: the service treats seed 0 as
// "use the default").
func sessionSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z>>2) + 1
}

// iterRecord is what the benchmark keeps of one completed iteration.
type iterRecord struct {
	rep     pipeline.Report
	wallMs  float64 // RunIteration wall time (pipeline workloads)
	allocMB float64 // traced pipeline runs only
	allocs  float64
}

// sessionRecord is one session's behaviour: its iterations and the
// final ÷ initial distance to the ground-truth chart of every view.
type sessionRecord struct {
	seed   int64
	iters  []iterRecord
	ratios []float64
}

// signature renders everything observation must not change: per
// iteration the asked CQG, question and answer counts and benefit
// evaluations, and each view's final distance ratio, bit for bit.
func (r sessionRecord) signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", r.seed)
	for i, it := range r.iters {
		rep := it.rep
		fmt.Fprintf(&b, "|%d:%v q=%d u=%d e=%d", i+1, rep.CQGMembers, rep.Questions(), rep.Unanswered, rep.BenefitEvals)
	}
	for _, x := range r.ratios {
		fmt.Fprintf(&b, "|r=%016x", math.Float64bits(x))
	}
	return b.String()
}

// phase accumulates one measured phase's samples.
type phase struct {
	setupS, waitMs, refreshMs, migrateMs, sessionMB []float64

	generateMs, fingerprintMs, createMs, detachMs, attachMs []float64
	answerUs, queueDepth, replayMs, persistMs, snapshotKB   []float64
	artifactBytes                                           []float64
	polls, questions                                        int

	wall      time.Duration // time inside the timed loops
	sessions  []sessionRecord
	units     int // sessions (pipeline) or rounds (service) completed
	attempted int
	failed    int
	problems  []string

	// Traced phases only: obs.Default counter deltas and the GC share
	// of CPU time over the phase.
	obsDelta  map[string]float64
	gcCPUFrac float64
}

func newPhase() *phase { return &phase{} }

// fail records a failed operation or a mismatch; either fails the run.
func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
}

func (ph *phase) iterations() []iterRecord {
	var out []iterRecord
	for _, s := range ph.sessions {
		out = append(out, s.iters...)
	}
	return out
}

// detSessions is how many leading sessions the deterministic metrics
// (dist_ratio_final, benefit.evals_per_iter,
// pipeline.questions_per_iter) cover: every phase completes them, so
// the same seed gives the same values whatever the machine's speed.
const detSessions = 4

func (ph *phase) detIterations() []iterRecord {
	var out []iterRecord
	for _, s := range ph.sessions[:min(detSessions, len(ph.sessions))] {
		out = append(out, s.iters...)
	}
	return out
}

func (ph *phase) distRatio() float64 {
	var xs []float64
	for _, s := range ph.sessions[:min(detSessions, len(ph.sessions))] {
		xs = append(xs, s.ratios...)
	}
	return mean(xs)
}

// endToEndMetrics reports what a user waits for and gets.
func endToEndMetrics(ph *phase, r *results) {
	n := len(ph.iterations())
	r.add("setup_s", "s", median(ph.setupS), len(ph.setupS))
	r.timing("question_wait_ms", "ms", ph.waitMs)
	r.timing("refresh_ms", "ms", ph.refreshMs)
	r.add("iter_per_s", "1/s", float64(n)/ph.wall.Seconds(), n)
	r.add("session_mb", "MB", median(ph.sessionMB), len(ph.sessionMB))
	r.add("dist_ratio_final", "ratio", ph.distRatio(), min(detSessions, len(ph.sessions)))
	r.add("failed_frac", "fraction", frac(float64(ph.failed), float64(ph.attempted)), ph.attempted)
}

// layerMetrics reports the per-layer numbers of a traced phase. Phase
// times are medians per iteration of pipeline.Report.Timings.
func layerMetrics(ph *phase, r *results) {
	its := ph.iterations()
	n := len(its)
	phaseMs := func(f func(pipeline.Timings) time.Duration) float64 {
		xs := make([]float64, 0, n)
		for _, it := range its {
			xs = append(xs, ms(f(it.rep.Timings)))
		}
		return median(xs)
	}
	var evals, memo, dAcc, dFall, detAcc, detFall, verts, qs, unans float64
	for _, it := range its {
		rep := it.rep
		memo += float64(rep.MemoHits)
		dAcc += float64(rep.DeltaAccepts)
		dFall += float64(rep.DeltaFallbacks)
		detAcc += float64(rep.DetectAccepts)
		detFall += float64(rep.DetectFallbacks)
		verts += float64(rep.CQGVertices)
		qs += float64(rep.Questions())
		unans += float64(rep.Unanswered)
		evals += float64(rep.BenefitEvals)
	}
	det := ph.detIterations()
	var detEvals, detQs float64
	for _, it := range det {
		detEvals += float64(it.rep.BenefitEvals)
		detQs += float64(it.rep.Questions())
	}

	r.add("benefit.annotate_ms", "ms", phaseMs(func(t pipeline.Timings) time.Duration { return t.Benefit }), n)
	r.add("benefit.evals_per_iter", "count", frac(detEvals, float64(len(det))), len(det))
	r.add("benefit.memo_hit_frac", "fraction", frac(memo, memo+evals), n)
	r.add("benefit.delta_accept_frac", "fraction", frac(dAcc, dAcc+dFall), n)
	r.add("pipeline.detect_ms", "ms", phaseMs(func(t pipeline.Timings) time.Duration { return t.Detect }), n)
	r.add("pipeline.detect_cache_hit_frac", "fraction", frac(detAcc, detAcc+detFall), n)
	r.add("erg.build_ms", "ms", phaseMs(func(t pipeline.Timings) time.Duration { return t.BuildERG }), n)
	r.add("cqgselect.select_ms", "ms", phaseMs(func(t pipeline.Timings) time.Duration { return t.Select }), n)
	r.add("erg.cqg_vertices", "count", frac(verts, float64(n)), n)
	r.add("vql.view_ms", "ms", phaseMs(func(t pipeline.Timings) time.Duration { return t.View }), n)
	r.add("distance.ms", "ms", phaseMs(func(t pipeline.Timings) time.Duration { return t.Distance }), n)
	r.add("em.train_ms", "ms", phaseMs(func(t pipeline.Timings) time.Duration { return t.Train }), n)
	r.add("pipeline.apply_ms", "ms", phaseMs(func(t pipeline.Timings) time.Duration { return t.Apply }), n)
	r.add("pipeline.questions_per_iter", "count", frac(detQs, float64(len(det))), len(det))
	r.add("pipeline.unanswered_frac", "fraction", frac(unans, qs), n)

	// RunIteration's wall time is known only when the benchmark calls
	// it itself (the pipeline workloads). The user's callbacks run
	// inside Timings.Apply, so wall − Total() is what no phase claims.
	var unattributed, allocMB, allocs []float64
	for _, it := range its {
		if it.wallMs > 0 {
			unattributed = append(unattributed, it.wallMs-ms(it.rep.Timings.Total()))
			allocMB = append(allocMB, it.allocMB)
			allocs = append(allocs, it.allocs)
		}
	}
	r.add("pipeline.unattributed_ms", "ms", median(unattributed), len(unattributed))
	if len(allocMB) > 0 {
		r.add("runtime.alloc_mb_per_iter", "MB", median(allocMB), len(allocMB))
		r.add("runtime.allocs_per_iter", "count", median(allocs), len(allocs))
	} else {
		// The service runs iterations on its own workers: charge the
		// phase's whole allocation to its iterations.
		r.add("runtime.alloc_mb_per_iter", "MB", frac(ph.obsDelta["alloc_bytes"]/(1<<20), float64(n)), n)
		r.add("runtime.allocs_per_iter", "count", frac(ph.obsDelta["allocs"], float64(n)), n)
	}
	r.add("runtime.gc_cpu_frac", "fraction", ph.gcCPUFrac, 1)
	r.add("par.fanouts_per_iter", "count", frac(ph.obsDelta["visclean_par_fanouts_total"], float64(n)), n)
	r.add("par.busy_frac", "fraction",
		frac(ph.obsDelta["visclean_par_worker_busy_seconds_total"], ph.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), n)

	hits, misses := ph.obsDelta["visclean_artifact_hits_total"], ph.obsDelta["visclean_artifact_misses_total"]
	r.add("artifact.hit_frac", "fraction", frac(hits, hits+misses), int(hits+misses))
	r.add("artifact.bytes", "bytes", median(ph.artifactBytes), len(ph.artifactBytes))
	r.add("service.create_ms", "ms", median(ph.createMs), len(ph.createMs))
	r.add("datagen.generate_ms", "ms", median(ph.generateMs), len(ph.generateMs))
	r.add("dataset.fingerprint_ms", "ms", median(ph.fingerprintMs), len(ph.fingerprintMs))
	for _, p := range []struct {
		name string
		p    float64
	}{{"service.migrate_ms.p50", 50}, {"service.migrate_ms.p90", 90}} {
		v, ok := percentile(ph.migrateMs, p.p)
		if len(ph.migrateMs) == 0 || ok {
			r.add(p.name, "ms", v, len(ph.migrateMs))
		}
	}
	r.add("service.detach_ms", "ms", median(ph.detachMs), len(ph.detachMs))
	r.add("service.attach_ms", "ms", median(ph.attachMs), len(ph.attachMs))
	r.add("pipeline.replay_ms", "ms", median(ph.replayMs), len(ph.replayMs))
	r.add("service.persist_ms", "ms", median(ph.persistMs), len(ph.persistMs))
	r.add("service.snapshot_kb", "KB", median(ph.snapshotKB), len(ph.snapshotKB))
	r.add("service.answer_us", "us", median(ph.answerUs), len(ph.answerUs))
	r.add("service.polls_per_question", "count", frac(float64(ph.polls), float64(ph.questions)), ph.questions)
	r.add("service.queue_depth", "count", mean(ph.queueDepth), len(ph.queueDepth))
	r.add("dist_ratio_final", "ratio", ph.distRatio(), min(detSessions, len(ph.sessions)))
}

// observed snapshots what a traced phase reads from outside the
// program: obs.Default's counters, the allocator's totals and the
// runtime's CPU accounting.
type observed struct {
	vals            map[string]float64
	gcCPU, totalCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func observe() (observed, error) {
	var buf bytes.Buffer
	if err := obs.Default.WriteJSON(&buf); err != nil {
		return observed{}, err
	}
	raw := map[string]json.RawMessage{}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		return observed{}, fmt.Errorf("obs snapshot: %w", err)
	}
	o := observed{vals: map[string]float64{}}
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			o.vals[k] = f
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.vals["alloc_bytes"] = float64(m.TotalAlloc)
	o.vals["allocs"] = float64(m.Mallocs)
	metrics.Read(cpuSamples)
	o.gcCPU, o.totalCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return o, nil
}

// since stores the change from o to now on ph.
func (o observed) since(ph *phase) error {
	now, err := observe()
	if err != nil {
		return err
	}
	ph.obsDelta = map[string]float64{}
	for k, v := range now.vals {
		ph.obsDelta[k] = v - o.vals[k]
	}
	ph.gcCPUFrac = frac(now.gcCPU-o.gcCPU, now.totalCPU-o.totalCPU)
	return nil
}
