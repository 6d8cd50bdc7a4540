package pipeline

import (
	"context"
	"errors"
	"math"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/vis"
)

// visEqual asserts two visualizations are identical point for point.
func visEqual(t *testing.T, a, b *vis.Data) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point count: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i].Label != b.Points[i].Label {
			t.Fatalf("label %d: %q vs %q", i, a.Points[i].Label, b.Points[i].Label)
		}
		if math.Abs(a.Points[i].Y-b.Points[i].Y) > 1e-12 {
			t.Fatalf("value %d (%s): %v vs %v", i, a.Points[i].Label, a.Points[i].Y, b.Points[i].Y)
		}
	}
}

// TestReplayReproducesSession is the snapshot/restore soundness test:
// a fresh identically-configured session replaying the answer log must
// land on the exact same visualization, distance-to-truth and history.
func TestReplayReproducesSession(t *testing.T) {
	live, orc := newTestSession(t, SelectGSS, 5)
	for i := 0; i < 3; i++ {
		rep, err := live.RunIteration(orc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
	}
	h := live.History()
	if len(h.Iterations) == 0 {
		t.Fatal("no iterations logged")
	}
	if len(h.Partial) != 0 {
		t.Fatalf("completed iterations left %d partial answers", len(h.Partial))
	}

	restored, _ := newTestSession(t, SelectGSS, 5)
	if err := restored.Replay(h); err != nil {
		t.Fatal(err)
	}

	if live.Iteration() != restored.Iteration() {
		t.Fatalf("iteration count: live %d, restored %d", live.Iteration(), restored.Iteration())
	}
	dLive, err := live.DistToTruth()
	if err != nil {
		t.Fatal(err)
	}
	dRest, err := restored.DistToTruth()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dLive-dRest) > 1e-12 {
		t.Fatalf("dist to truth: live %v, restored %v", dLive, dRest)
	}
	vLive, err := live.CurrentVis()
	if err != nil {
		t.Fatal(err)
	}
	vRest, err := restored.CurrentVis()
	if err != nil {
		t.Fatal(err)
	}
	visEqual(t, vLive, vRest)

	// The restored session's own log must be snapshot-complete again.
	h2 := restored.History()
	if len(h2.Iterations) != len(h.Iterations) {
		t.Fatalf("restored history has %d iterations, want %d", len(h2.Iterations), len(h.Iterations))
	}
	for i := range h.Iterations {
		if len(h2.Iterations[i]) != len(h.Iterations[i]) {
			t.Fatalf("restored iteration %d has %d answers, want %d",
				i, len(h2.Iterations[i]), len(h.Iterations[i]))
		}
	}

	// And the replayed session keeps cleaning identically. The perfect
	// oracle consumes no RNG when answering, so a fresh one stands in
	// for the live session's oracle.
	_, orcFresh := newTestSession(t, SelectGSS, 5)
	repL, errL := live.RunIteration(orc)
	repR, errR := restored.RunIteration(orcFresh)
	if (errL == nil) != (errR == nil) {
		t.Fatalf("post-replay iteration errors diverge: %v vs %v", errL, errR)
	}
	if errL == nil && repL.Questions() != repR.Questions() {
		t.Fatalf("post-replay questions diverge: %d vs %d", repL.Questions(), repR.Questions())
	}
}

// TestReplayPartialIteration covers the crash-mid-CQG path: cancelling
// an in-flight iteration leaves its applied answers as partial history,
// and replaying committed+partial reproduces the live state.
func TestReplayPartialIteration(t *testing.T) {
	live, orc := newTestSession(t, SelectGSS, 6)
	if _, err := live.RunIteration(orc); err != nil {
		t.Fatal(err)
	}

	// Cancel after the second answer of the next iteration.
	ctx, cancel := context.WithCancel(context.Background())
	cu := &cancellingUser{inner: orc, cancel: cancel, stopAfter: 2}
	_, err := live.RunIterationCtx(ctx, cu)
	if err == nil {
		t.Skip("iteration finished before cancellation could interrupt it")
	}
	if ctx.Err() == nil {
		t.Fatalf("unexpected error: %v", err)
	}

	h := live.History()
	if len(h.Iterations) != 1 {
		t.Fatalf("committed iterations = %d, want 1", len(h.Iterations))
	}
	if len(h.Partial) == 0 {
		t.Fatal("cancelled iteration logged no partial answers")
	}
	if live.Iteration() != 1 {
		t.Fatalf("cancelled iteration advanced the counter to %d", live.Iteration())
	}

	restored, _ := newTestSession(t, SelectGSS, 6)
	if err := restored.Replay(h); err != nil {
		t.Fatal(err)
	}
	vLive, err := live.CurrentVis()
	if err != nil {
		t.Fatal(err)
	}
	vRest, err := restored.CurrentVis()
	if err != nil {
		t.Fatal(err)
	}
	visEqual(t, vLive, vRest)
}

// cancellingUser forwards to an inner user and cancels the context after
// stopAfter answers.
type cancellingUser struct {
	inner     User
	cancel    context.CancelFunc
	stopAfter int
	answered  int
}

func (c *cancellingUser) bump() {
	c.answered++
	if c.answered >= c.stopAfter {
		c.cancel()
	}
}

func (c *cancellingUser) AnswerT(a, b dataset.TupleID) (bool, bool) {
	defer c.bump()
	return c.inner.AnswerT(a, b)
}

func (c *cancellingUser) AnswerA(column, v1, v2 string) (bool, bool) {
	defer c.bump()
	return c.inner.AnswerA(column, v1, v2)
}

func (c *cancellingUser) AnswerM(column string, id dataset.TupleID) (float64, bool) {
	defer c.bump()
	return c.inner.AnswerM(column, id)
}

func (c *cancellingUser) AnswerO(column string, id dataset.TupleID, current float64) (bool, float64, bool) {
	defer c.bump()
	return c.inner.AnswerO(column, id, current)
}

// TestReplayRequiresFreshSession guards the precondition.
func TestReplayRequiresFreshSession(t *testing.T) {
	s, orc := newTestSession(t, SelectGSS, 7)
	if _, err := s.RunIteration(orc); err != nil {
		t.Fatal(err)
	}
	if err := s.Replay(History{}); err == nil {
		t.Fatal("Replay on a used session must fail")
	}
}

// TestReplayRejectsInvalidAnswers: a logged answer naming a tuple or
// column the session does not have fails Replay with ErrInvalidAnswer
// before anything is applied or re-logged.
func TestReplayRejectsInvalidAnswers(t *testing.T) {
	probe, _ := newTestSession(t, SelectGSS, 7)
	id := probe.Table().ID(0)
	cases := []struct {
		name string
		a    Answer
	}{
		{"T unknown ids", Answer{Kind: AnswerKindT, A: 999999999, B: 999999998, Yes: true}},
		{"T self-pair", Answer{Kind: AnswerKindT, A: id, B: id, Yes: true}},
		{"A unknown column", Answer{Kind: AnswerKindA, Column: "nope", V1: "x", V2: "y", Yes: true}},
		{"M unknown id", Answer{Kind: AnswerKindM, A: 999999999, Value: 1}},
		{"O unknown id", Answer{Kind: AnswerKindO, A: 999999999, Yes: true, Value: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _ := newTestSession(t, SelectGSS, 7)
			err := s.Replay(History{Iterations: [][]Answer{{c.a}}})
			if !errors.Is(err, ErrInvalidAnswer) {
				t.Fatalf("Replay(%+v) = %v, want ErrInvalidAnswer", c.a, err)
			}
			if n := s.History().NumAnswers(); n != 0 {
				t.Fatalf("rejected answer left %d logged answers", n)
			}
		})
	}
}
