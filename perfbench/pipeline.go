package main

import (
	"fmt"
	"runtime"
	"time"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/vis"
	"visclean/internal/vql"
)

// pipelineWorkload drives pipeline.Session directly: one client,
// sessions back to back, each on a fresh D1 dataset derived from the
// workload seed, each running budget iterations answered by an
// oracle.Oracle.
type pipelineWorkload struct {
	views  []string // VQL of every view; views[0] is the primary query
	scale  float64
	budget int
}

// timedUser answers from the oracle and records when the program first
// asked and when the last answer returned.
type timedUser struct {
	o        *oracle.Oracle
	tr       *tracer
	iterSpan int
	iter     int
	start    time.Time // RunIteration call
	first    time.Time // first callback entered
	lastEnd  time.Time // last callback returned
	calls    int
}

func (u *timedUser) reset(start time.Time, iterSpan, iter int) {
	u.start, u.iterSpan, u.iter = start, iterSpan, iter
	u.calls = 0
}

func (u *timedUser) enter() time.Time {
	t := time.Now()
	if u.calls == 0 {
		u.first = t
		u.tr.record("wait_first_question", u.iterSpan, u.iter, u.start, t)
	}
	u.calls++
	return t
}

func (u *timedUser) leave(t0 time.Time) {
	u.lastEnd = time.Now()
	u.tr.record("callback", u.iterSpan, u.iter, t0, u.lastEnd)
}

func (u *timedUser) AnswerT(a, b dataset.TupleID) (bool, bool) {
	t0 := u.enter()
	defer u.leave(t0)
	return u.o.AnswerT(a, b)
}

func (u *timedUser) AnswerA(column, v1, v2 string) (bool, bool) {
	t0 := u.enter()
	defer u.leave(t0)
	return u.o.AnswerA(column, v1, v2)
}

func (u *timedUser) AnswerM(column string, id dataset.TupleID) (float64, bool) {
	t0 := u.enter()
	defer u.leave(t0)
	return u.o.AnswerM(column, id)
}

func (u *timedUser) AnswerO(column string, id dataset.TupleID, current float64) (bool, float64, bool) {
	t0 := u.enter()
	defer u.leave(t0)
	return u.o.AnswerO(column, id, current)
}

func (w pipelineWorkload) run(o phaseOpts) (*phase, error) {
	ph := newPhase()
	began := time.Now()
	for ; !o.done(ph, ph.units, time.Since(began)); ph.units++ {
		if err := w.session(o, ph, sessionSeed(o.seed, ph.units)); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// session runs one cleaning session and adds its samples to ph.
func (w pipelineWorkload) session(o phaseOpts, ph *phase, seed int64) error {
	tr := o.tr
	root := tr.begin("session", 0, 0)
	defer tr.end(root)

	t := time.Now()
	d := datagen.D1(datagen.Config{Scale: w.scale, Seed: seed})
	ph.generateMs = append(ph.generateMs, msSince(t))
	queries := make([]*vql.Query, len(w.views))
	truths := make([]*vis.Data, len(w.views))
	for v, src := range w.views {
		q, err := vql.Parse(src)
		if err != nil {
			return fmt.Errorf("view %d: %w", v, err)
		}
		tv, err := q.Execute(d.Truth.Clean)
		if err != nil {
			return fmt.Errorf("view %d truth: %w", v, err)
		}
		queries[v], truths[v] = q, tv
	}

	// Between sessions, outside every timed window: settle the heap so
	// the next session neither pays for the last one's garbage nor hides
	// its own retained size.
	runtime.GC()
	heap0 := heapAlloc()

	ph.attempted++
	t = time.Now()
	sp := tr.begin("NewSession", root, 0)
	s, err := pipeline.NewSession(d.Dirty, queries[0], d.KeyColumns, pipeline.Config{
		K:        10,
		Seed:     seed,
		Selector: pipeline.SelectGSS,
		Queries:  queries[1:],
		TruthVis: truths[0],
	})
	tr.end(sp)
	if err != nil {
		ph.fail("NewSession (seed %d): %v", seed, err)
		return nil
	}
	defer s.Close()
	sp = tr.begin("CurrentVisAll", root, 0)
	initial, err := s.CurrentVisAll()
	tr.end(sp)
	if err != nil {
		ph.fail("CurrentVisAll (seed %d): %v", seed, err)
		return nil
	}
	ph.setupS = append(ph.setupS, time.Since(t).Seconds())

	rec := sessionRecord{seed: seed}
	user := &timedUser{o: oracle.New(d.Truth, seed), tr: tr}
	charts := initial
	loop := time.Now()
	for it := 0; it < w.budget; it++ {
		iter := tr.newIter()
		var m0 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
		ph.attempted++
		start := time.Now()
		sp := tr.begin("RunIteration", root, iter)
		user.reset(start, sp, iter)
		rep, err := s.RunIteration(user)
		end := time.Now()
		tr.end(sp)
		if err != nil {
			ph.fail("RunIteration %d (seed %d): %v", it+1, seed, err)
			return nil
		}
		if rep.Exhausted {
			break
		}
		ir := iterRecord{rep: rep, wallMs: ms(end.Sub(start))}
		if user.calls > 0 {
			ph.waitMs = append(ph.waitMs, ms(user.first.Sub(start)))
			ph.refreshMs = append(ph.refreshMs, ms(end.Sub(user.lastEnd)))
		}
		if tr != nil {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			ir.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			ir.allocs = float64(m1.Mallocs - m0.Mallocs)
		}
		charts = rep.ViewCharts
		ir.rep.ViewCharts = nil // keep the record small
		rec.iters = append(rec.iters, ir)
	}
	ph.wall += time.Since(loop)

	for v := range w.views {
		rec.ratios = append(rec.ratios, frac(distance.Default(truths[v], charts[v]), distance.Default(truths[v], initial[v])))
	}
	runtime.GC()
	ph.sessionMB = append(ph.sessionMB, float64(heapAlloc()-heap0)/(1<<20))
	runtime.KeepAlive(s)
	ph.sessions = append(ph.sessions, rec)
	return nil
}

func heapAlloc() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
