package service

// Multi-view sessions through the service layer: specs with extra
// views, mid-session AddView, the per-view state cache, and the
// kill/restart path restoring every panel (DESIGN.md §13).

import (
	"errors"
	"testing"
	"time"
)

const testSecondQuery = `VISUALIZE bar SELECT Affiliation, AVG(Citations) FROM D1 TRANSFORM GROUP BY Affiliation SORT Y BY DESC LIMIT 8`

// testMultiSpec is testSpec plus one extra view.
func testMultiSpec(seed int64, auto bool) Spec {
	sp := testSpec(seed, auto)
	sp.Queries = []string{testSecondQuery}
	return sp
}

// TestMultiViewStateCarriesAllPanels: a 2-view session's State exposes
// both charts and both query strings from creation onward, with view 0
// aliasing the legacy single-chart field.
func TestMultiViewStateCarriesAllPanels(t *testing.T) {
	reg := newTestRegistry(t, nil)
	id, err := reg.Create(testMultiSpec(4, true))
	if err != nil {
		t.Fatal(err)
	}
	st, err := reg.State(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ViewVis) != 2 || len(st.ViewQueries) != 2 {
		t.Fatalf("fresh 2-view state has %d charts / %d queries", len(st.ViewVis), len(st.ViewQueries))
	}
	if st.ViewQueries[1] == st.ViewQueries[0] {
		t.Fatal("view queries not distinct")
	}
	if err := iterateRetry(reg, id); err != nil {
		t.Fatal(err)
	}
	st, err = waitIdle(reg, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Err != "" {
		t.Fatalf("iteration error: %s", st.Err)
	}
	if len(st.ViewVis) != 2 {
		t.Fatalf("post-iteration state has %d charts, want 2", len(st.ViewVis))
	}
}

// TestAddViewLifecycle: registering a view mid-session extends the
// state, persists immediately, rejects garbage, and refuses to run
// while an iteration holds the pipeline.
func TestAddViewLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, func(c *Config) { c.SnapshotDir = dir })
	id, err := reg.Create(testSpec(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddView(id, "VISUALIZE nope"); err == nil {
		t.Fatal("AddView accepted an unparsable query")
	}
	if _, err := reg.AddView(id, `VISUALIZE bar SELECT Venue, SUM(Year) FROM D1 TRANSFORM GROUP BY Venue`); err == nil {
		t.Fatal("AddView accepted a view over a different measure")
	}
	v, err := reg.AddView(id, testSecondQuery)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("AddView returned index %d, want 1", v)
	}
	st, err := reg.State(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ViewVis) != 2 || len(st.ViewQueries) != 2 {
		t.Fatalf("state after AddView has %d charts / %d queries", len(st.ViewVis), len(st.ViewQueries))
	}
	// The registration is already durable: the snapshot replays it.
	snap, err := ReadSnapshotFile(reg.snapshotPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if snap.History.NumAnswers() == 0 {
		t.Fatal("AddView not persisted into the answer log")
	}
	if _, err := reg.AddView("nosuch", testSecondQuery); !errors.Is(err, ErrNotFound) {
		t.Fatalf("AddView on unknown id: err = %v, want ErrNotFound", err)
	}
}

// TestAddViewConflictsWithIteration: while an iteration is parked on a
// question, AddView must refuse instead of mutating the pipeline under
// the worker.
func TestAddViewConflictsWithIteration(t *testing.T) {
	reg := newTestRegistry(t, nil)
	id, err := reg.Create(testSpec(4, false)) // no auto user: question parks
	if err != nil {
		t.Fatal(err)
	}
	if err := iterateRetry(reg, id); err != nil {
		t.Fatal(err)
	}
	if _, err := waitQuestion(reg, id); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddView(id, testSecondQuery); !errors.Is(err, ErrIterationRunning) {
		t.Fatalf("AddView mid-iteration: err = %v, want ErrIterationRunning", err)
	}
	if err := reg.Answer(id, Answer{Skip: true}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiViewRestartRoundTrip is the service-level kill/restart
// fence: a session created with two views that adds a third mid-session
// must come back with all three panels bit-equal after a restart.
func TestMultiViewRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg1 := NewRegistry(Config{
		MaxSessions: 16, Workers: 4, SweepInterval: time.Hour,
		SnapshotDir: dir, Logf: t.Logf,
	})
	id, err := reg1.Create(testMultiSpec(4, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := iterateRetry(reg1, id); err != nil {
		t.Fatal(err)
	}
	if _, err := waitIdle(reg1, id); err != nil {
		t.Fatal(err)
	}
	if _, err := reg1.AddView(id, `VISUALIZE bar SELECT Year, SUM(Citations) FROM D1 TRANSFORM BIN Year BY INTERVAL 1`); err != nil {
		t.Fatal(err)
	}
	if err := iterateRetry(reg1, id); err != nil {
		t.Fatal(err)
	}
	before, err := waitIdle(reg1, id)
	if err != nil {
		t.Fatal(err)
	}
	if before.Err != "" {
		t.Fatalf("iteration error: %s", before.Err)
	}
	if len(before.ViewVis) != 3 {
		t.Fatalf("pre-restart state has %d charts, want 3", len(before.ViewVis))
	}
	reg1.Shutdown()

	reg2 := newTestRegistry(t, func(c *Config) { c.SnapshotDir = dir })
	after, err := reg2.State(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.ViewVis) != 3 || len(after.ViewQueries) != 3 {
		t.Fatalf("restored state has %d charts / %d queries, want 3/3", len(after.ViewVis), len(after.ViewQueries))
	}
	for i := range before.ViewVis {
		if after.ViewQueries[i] != before.ViewQueries[i] {
			t.Fatalf("view %d query after restart: %q vs %q", i, after.ViewQueries[i], before.ViewQueries[i])
		}
		chartEqual(t, before.ViewVis[i], after.ViewVis[i])
	}
	// And it keeps iterating with all views priced.
	if err := iterateRetry(reg2, id); err != nil {
		t.Fatal(err)
	}
	st, err := waitIdle(reg2, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Err != "" {
		t.Fatalf("post-restart iteration error: %s", st.Err)
	}
}
