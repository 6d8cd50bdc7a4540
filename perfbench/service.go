package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"visclean/internal/artifact"
	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/service"
	"visclean/internal/vis"
)

// serviceWorkload drives two in-process service.Registry instances
// with closed-loop interactive clients. Rounds run back to back. Each
// round builds a fresh registry pair and fresh seed-derived D2
// datasets, one per client, and warms both registries for them outside
// the timed window, so every timed Create and Attach finds its
// artifacts cached. Then every client creates a session, runs budget
// iterations (iterate, poll, answer every parked question, wait for
// completion, move the session to the other registry) and closes it.
type serviceWorkload struct {
	clients int
	scale   float64
	budget  int
	poll    time.Duration
}

// quiet drops the registries' operational log lines.
func quiet(string, ...any) {}

func newRegistries(dir string) ([2]*service.Registry, error) {
	var regs [2]*service.Registry
	for i := range regs {
		sub := filepath.Join(dir, fmt.Sprintf("registry-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return regs, err
		}
		regs[i] = service.NewRegistry(service.Config{SnapshotDir: sub, Logf: quiet})
	}
	return regs, nil
}

// warm creates and closes one session so r caches its artifacts.
func warm(r *service.Registry, spec service.Spec) error {
	id, err := r.Create(spec)
	if err != nil {
		return fmt.Errorf("warm create: %w", err)
	}
	return r.Close(id)
}

func (w serviceWorkload) run(o phaseOpts) (*phase, error) {
	ph := newPhase()
	var snaps []service.Snapshot
	began := time.Now()
	for ; !o.done(ph, ph.units, time.Since(began)); ph.units++ {
		kept, err := w.round(o, ph, ph.units)
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, kept...)
	}
	if o.tr == nil {
		return ph, nil
	}
	return ph, w.probe(o, ph, snaps)
}

// round runs round r and returns the snapshots it migrated when r is 0
// (the traced run probes those).
func (w serviceWorkload) round(o phaseOpts, ph *phase, r int) ([]service.Snapshot, error) {
	dir, err := os.MkdirTemp(o.dir, "round-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	regs, err := newRegistries(dir)
	defer func() {
		for _, reg := range regs {
			if reg != nil {
				reg.Shutdown()
			}
		}
	}()
	if err != nil {
		return nil, err
	}

	specs := make([]service.Spec, w.clients)
	truths := make([]*oracle.GroundTruth, w.clients)
	for c := range specs {
		specs[c] = service.Spec{Dataset: "D2", Scale: w.scale, Seed: sessionSeed(o.seed, r*w.clients+c), K: 10}.WithDefaults()
		t := time.Now()
		d := datagen.D2(datagen.Config{Scale: specs[c].Scale, Seed: specs[c].Seed})
		ph.generateMs = append(ph.generateMs, msSince(t))
		t = time.Now()
		_ = d.Dirty.Fingerprint()
		ph.fingerprintMs = append(ph.fingerprintMs, msSince(t))
		truths[c] = d.Truth
	}
	// Set-up: the first Create on a cold cache plus warming the second
	// registry for the same spec, timed for client 0.
	runtime.GC()
	for c, spec := range specs {
		t := time.Now()
		for _, reg := range regs {
			if err := warm(reg, spec); err != nil {
				return nil, err
			}
		}
		if c == 0 {
			ph.setupS = append(ph.setupS, time.Since(t).Seconds())
		}
	}
	runtime.GC() // outside the timed window

	parts := make([]*phase, w.clients)
	kept := make([][]service.Snapshot, w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		parts[c] = newPhase()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kept[c] = w.session(o, regs, c, specs[c], truths[c], parts[c], r == 0)
		}(c)
	}
	wg.Wait()
	ph.wall += time.Since(start)
	var snaps []service.Snapshot
	for c, p := range parts {
		ph.merge(p)
		snaps = append(snaps, kept[c]...)
	}
	if o.tr != nil {
		ph.artifactBytes = append(ph.artifactBytes,
			float64(regs[0].ArtifactStats().Bytes+regs[1].ArtifactStats().Bytes))
	}
	return snaps, sessionMemory(ph, regs[0], specs)
}

// merge folds one client's samples into ph.
func (ph *phase) merge(p *phase) {
	ph.waitMs = append(ph.waitMs, p.waitMs...)
	ph.refreshMs = append(ph.refreshMs, p.refreshMs...)
	ph.migrateMs = append(ph.migrateMs, p.migrateMs...)
	ph.createMs = append(ph.createMs, p.createMs...)
	ph.detachMs = append(ph.detachMs, p.detachMs...)
	ph.attachMs = append(ph.attachMs, p.attachMs...)
	ph.answerUs = append(ph.answerUs, p.answerUs...)
	ph.queueDepth = append(ph.queueDepth, p.queueDepth...)
	ph.polls += p.polls
	ph.questions += p.questions
	ph.sessions = append(ph.sessions, p.sessions...)
	ph.attempted += p.attempted
	ph.failed += p.failed
	ph.problems = append(ph.problems, p.problems...)
}

// client is one closed-loop user of the service: it owns one session,
// which migrates between the two registries after every iteration.
type client struct {
	every  time.Duration // poll interval
	tr     *tracer
	ph     *phase
	regs   [2]*service.Registry
	cur    int // index of the registry holding the session
	c      int
	id     string
	st     service.State // last polled state
	policy *oracle.Oracle
	kept   []service.Snapshot
	keep   bool
}

// call wraps one Registry call in a span.
func (cl *client) call(name string, parent, iter int, f func() error) error {
	sp := cl.tr.begin(name, parent, iter)
	defer cl.tr.end(sp)
	return f()
}

func (cl *client) poll(parent, iter int) error {
	return cl.call("State", parent, iter, func() (err error) {
		cl.st, err = cl.regs[cl.cur].State(cl.id)
		return err
	})
}

// session runs client c's session and returns the snapshots it migrated
// when keep is set. Failures are recorded on ph.
func (w serviceWorkload) session(o phaseOpts, regs [2]*service.Registry, c int, spec service.Spec, truth *oracle.GroundTruth, ph *phase, keep bool) []service.Snapshot {
	cl := &client{every: w.poll, tr: o.tr, ph: ph, regs: regs, cur: c % 2, c: c, policy: oracle.New(truth, spec.Seed), keep: keep}
	root := cl.tr.begin("client_session", 0, 0)
	defer cl.tr.end(root)

	ph.attempted++
	t := time.Now()
	err := cl.call("Create", root, 0, func() (err error) { cl.id, err = regs[cl.cur].Create(spec); return err })
	if err != nil {
		ph.fail("client %d create: %v", c, err)
		return nil
	}
	ph.createMs = append(ph.createMs, msSince(t))
	defer func() {
		if err := cl.call("Close", root, 0, func() error { return regs[cl.cur].Close(cl.id) }); err != nil {
			ph.fail("client %d close: %v", c, err)
		}
	}()
	if err := cl.poll(root, 0); err != nil {
		ph.fail("client %d state: %v", c, err)
		return nil
	}
	initial := cl.st.DistToTruth
	rec := sessionRecord{seed: spec.Seed}
	for it := 0; it < w.budget; it++ {
		rep, err := cl.iteration(root)
		if err != nil {
			ph.fail("client %d iteration %d: %v", c, it+1, err)
			return cl.kept
		}
		if rep == nil { // the ERG ran out of questions
			break
		}
		rec.iters = append(rec.iters, iterRecord{rep: *rep})
	}
	rec.ratios = []float64{frac(cl.st.DistToTruth, initial)}
	ph.sessions = append(ph.sessions, rec)
	return cl.kept
}

// iteration runs one iteration and moves the session to the other
// registry. It returns the iteration's report, or nil when the session
// had nothing left to ask.
func (cl *client) iteration(root int) (*pipeline.Report, error) {
	ph := cl.ph
	iter := cl.tr.newIter()
	isp := cl.tr.begin("iteration", root, iter)
	defer cl.tr.end(isp)
	reg := cl.regs[cl.cur]

	var queued int
	_ = cl.call("QueueStats", isp, iter, func() error { queued, _, _ = reg.QueueStats(); return nil })
	ph.queueDepth = append(ph.queueDepth, float64(queued))
	ph.attempted++
	if err := cl.call("Iterate", isp, iter, func() error { return reg.Iterate(cl.id) }); err != nil {
		return nil, err
	}
	iterated := time.Now()
	prev := cl.st.Iteration
	var lastQID int
	var lastAnswer time.Time
	asked := false
	for deadline := iterated.Add(time.Minute); ; {
		time.Sleep(cl.every)
		if err := cl.poll(isp, iter); err != nil {
			return nil, err
		}
		ph.polls++
		now := time.Now()
		if q := cl.st.Question; q != nil && q.ID != lastQID {
			if !asked {
				ph.waitMs = append(ph.waitMs, ms(now.Sub(iterated)))
				asked = true
			}
			a := answerFor(cl.policy, q)
			t := time.Now()
			err := cl.call("Answer", isp, iter, func() error { return reg.Answer(cl.id, a) })
			lastAnswer = time.Now()
			if err != nil {
				return nil, err
			}
			ph.answerUs = append(ph.answerUs, float64(lastAnswer.Sub(t))/1e3)
			ph.questions++
			lastQID = q.ID
			continue
		}
		if cl.st.Iteration > prev {
			if asked {
				ph.refreshMs = append(ph.refreshMs, ms(now.Sub(lastAnswer)))
			}
			break
		}
		if !cl.st.Running {
			break // exhausted, or failed (checked below)
		}
		if now.After(deadline) {
			return nil, fmt.Errorf("no new iteration after %v", time.Minute)
		}
	}
	for cl.st.Running && cl.st.Err == "" { // wait for completion (snapshot persist)
		time.Sleep(cl.every)
		if err := cl.poll(isp, iter); err != nil {
			return nil, err
		}
	}
	if cl.st.Err != "" {
		return nil, errors.New(cl.st.Err)
	}
	if cl.st.Iteration == prev {
		return nil, nil
	}
	rep := *cl.st.Report
	rep.ViewCharts = nil

	// Move the session to the other registry; it must arrive with the
	// same iteration count and bit-identical charts.
	before := cl.st
	other := cl.regs[1-cl.cur]
	ph.attempted++
	t := time.Now()
	var snap service.Snapshot
	err := cl.call("Detach", isp, iter, func() (err error) { snap, err = reg.Detach(cl.id); return err })
	detached := time.Now()
	if err == nil {
		err = cl.call("Attach", isp, iter, func() error { return other.Attach(snap) })
	}
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	ph.migrateMs = append(ph.migrateMs, msSince(t))
	ph.detachMs = append(ph.detachMs, ms(detached.Sub(t)))
	ph.attachMs = append(ph.attachMs, msSince(detached))
	cl.cur = 1 - cl.cur
	if cl.keep {
		cl.kept = append(cl.kept, snap)
	}
	if err := cl.poll(isp, iter); err != nil {
		return nil, fmt.Errorf("state after attach: %w", err)
	}
	if msg := sameState(before, cl.st); msg != "" {
		ph.fail("client %d: attach changed the session: %s", cl.c, msg)
	}
	return &rep, nil
}

// answerFor resolves a parked question from the client's oracle.
func answerFor(o *oracle.Oracle, q *service.Question) service.Answer {
	switch q.Kind {
	case "T":
		yes, ok := o.AnswerT(dataset.TupleID(q.TupleA), dataset.TupleID(q.TupleB))
		return service.Answer{Yes: yes, Skip: !ok}
	case "A":
		yes, ok := o.AnswerA(q.Column, q.V1, q.V2)
		return service.Answer{Yes: yes, Skip: !ok}
	case "M":
		v, ok := o.AnswerM(q.Column, dataset.TupleID(q.TupleA))
		return service.Answer{Value: v, HasValue: ok, Skip: !ok}
	case "O":
		yes, v, ok := o.AnswerO(q.Column, dataset.TupleID(q.TupleA), q.Current)
		return service.Answer{Yes: yes, Value: v, HasValue: yes, Skip: !ok}
	default:
		return service.Answer{Skip: true}
	}
}

// sameState reports how two states of one session differ in iteration
// count, distance to truth or any chart, compared bit for bit ("" when
// identical).
func sameState(a, b service.State) string {
	if a.Iteration != b.Iteration {
		return fmt.Sprintf("iteration %d became %d", a.Iteration, b.Iteration)
	}
	if math.Float64bits(a.DistToTruth) != math.Float64bits(b.DistToTruth) {
		return fmt.Sprintf("distance to truth %v became %v", a.DistToTruth, b.DistToTruth)
	}
	if len(a.ViewVis) != len(b.ViewVis) {
		return fmt.Sprintf("%d views became %d", len(a.ViewVis), len(b.ViewVis))
	}
	for v := range a.ViewVis {
		if !sameChart(a.ViewVis[v], b.ViewVis[v]) {
			return fmt.Sprintf("chart of view %d differs", v)
		}
	}
	return ""
}

func sameChart(a, b *vis.Data) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if p.Label != q.Label || p.HasX != q.HasX ||
			math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			return false
		}
	}
	return true
}

// sessionMemory measures, after a round, the heap one live session
// retains on a warm registry: two sessions per spec are created and the
// heap is compared after runtime.GC().
func sessionMemory(ph *phase, reg *service.Registry, specs []service.Spec) error {
	const perSpec = 2
	runtime.GC()
	h0 := heapAlloc()
	var ids []string
	for _, spec := range specs {
		for i := 0; i < perSpec; i++ {
			ph.attempted++
			id, err := reg.Create(spec)
			if err != nil {
				ph.fail("session memory create: %v", err)
				continue
			}
			ids = append(ids, id)
		}
	}
	runtime.GC()
	h1 := heapAlloc()
	for _, id := range ids {
		if err := reg.Close(id); err != nil {
			return err
		}
	}
	if len(ids) > 0 {
		ph.sessionMB = append(ph.sessionMB, float64(h1-h0)/float64(len(ids))/(1<<20))
	}
	return nil
}

// probe times, after a traced phase, the two layers a migration
// composes that the Registry does not expose: persisting a snapshot
// (WriteSnapshotFile) and replaying its answer log (Session.Replay) on
// a session built from its spec with a warm artifact cache.
func (w serviceWorkload) probe(o phaseOpts, ph *phase, snaps []service.Snapshot) error {
	tr := o.tr
	dir, err := os.MkdirTemp(o.dir, "probe-")
	if err != nil {
		return err
	}
	factory := service.CachedFactory(artifact.New(256 << 20))
	warmed := map[int64]bool{}
	for _, snap := range snaps {
		if warmed[snap.Spec.Seed] {
			continue
		}
		warmed[snap.Spec.Seed] = true
		ps, _, err := factory(snap.Spec)
		if err != nil {
			return err
		}
		ps.Close()
	}
	for i, snap := range snaps {
		path := filepath.Join(dir, fmt.Sprintf("snap-%d.json", i))
		ph.attempted++
		t := time.Now()
		sp := tr.begin("WriteSnapshotFile", 0, 0)
		err := service.WriteSnapshotFile(path, snap)
		tr.end(sp)
		if err != nil {
			ph.fail("write snapshot: %v", err)
			continue
		}
		ph.persistMs = append(ph.persistMs, msSince(t))
		if fi, err := os.Stat(path); err == nil {
			ph.snapshotKB = append(ph.snapshotKB, float64(fi.Size())/1024)
		}
		ps, _, err := factory(snap.Spec)
		if err != nil {
			return err
		}
		ph.attempted++
		t = time.Now()
		sp = tr.begin("Replay", 0, 0)
		err = ps.Replay(snap.History)
		tr.end(sp)
		ph.replayMs = append(ph.replayMs, msSince(t))
		ps.Close()
		if err != nil {
			ph.fail("replay: %v", err)
		}
	}
	return os.RemoveAll(dir)
}
