package pipeline

import (
	"slices"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/dataset"
	"visclean/internal/oracle"
	"visclean/internal/vql"
)

// TestViewInvariants checks structural invariants of the cleaned view
// after every iteration of a full run:
//
//   - one view row per entity cluster (never more rows than the dirty
//     table),
//   - view row count shrinks monotonically as entities merge (with a
//     perfect oracle nothing ever splits back),
//   - the view's schema equals the dirty schema,
//   - every A-column value in the view is its own canonical form.
func TestViewInvariants(t *testing.T) {
	d := datagen.D1(datagen.Config{Scale: 0.008, Seed: 17})
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	user := oracle.New(d.Truth, 17)

	check := func(iter int, prevRows int) int {
		view := s.CleanedView()
		if view.NumRows() > s.table.NumRows() {
			t.Fatalf("iter %d: view has %d rows, dirty %d", iter, view.NumRows(), s.table.NumRows())
		}
		if got := len(s.clusters.Groups(1)); view.NumRows() != got {
			t.Fatalf("iter %d: view rows %d != clusters %d", iter, view.NumRows(), got)
		}
		if len(view.Schema()) != len(s.table.Schema()) {
			t.Fatalf("iter %d: schema width changed", iter)
		}
		venue := view.ColumnIndex("Venue")
		st := s.std["Venue"]
		for v := range view.DistinctStrings(venue) {
			if canon := st.Canonical(v); canon != v {
				t.Fatalf("iter %d: view contains non-canonical value %q (canon %q)", iter, v, canon)
			}
		}
		return view.NumRows()
	}

	rows := check(0, 1<<30)
	for i := 0; i < 8; i++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
		rows = check(rep.Iteration, rows)
	}
}

// TestReportsAccounting verifies question counts line up with what the
// oracle was actually asked.
func TestReportsAccounting(t *testing.T) {
	s, user := newTestSession(t, SelectGSS, 19)
	counting := &countingUser{inner: user}
	rep, err := s.RunIteration(counting)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TQuestions != counting.t || rep.AQuestions < counting.a ||
		rep.MQuestions != counting.m || rep.OQuestions != counting.o {
		t.Fatalf("report %+v vs asked T=%d A=%d M=%d O=%d",
			rep, counting.t, counting.a, counting.m, counting.o)
	}
	// AQuestions may exceed explicit A asks: T-confirms answer attached
	// A-questions implicitly. It must never be below.
	if rep.Questions() < counting.t+counting.a+counting.m+counting.o {
		t.Fatal("reported fewer questions than the user answered")
	}
}

type countingUser struct {
	inner      *oracle.Oracle
	t, a, m, o int
}

func (c *countingUser) AnswerT(x, y dataset.TupleID) (bool, bool) {
	c.t++
	return c.inner.AnswerT(x, y)
}

func (c *countingUser) AnswerA(col, v1, v2 string) (bool, bool) {
	c.a++
	return c.inner.AnswerA(col, v1, v2)
}

func (c *countingUser) AnswerM(col string, id dataset.TupleID) (float64, bool) {
	c.m++
	return c.inner.AnswerM(col, id)
}

func (c *countingUser) AnswerO(col string, id dataset.TupleID, cur float64) (bool, float64, bool) {
	c.o++
	return c.inner.AnswerO(col, id, cur)
}

// TestAblationFlagsChangeBehaviour ensures the ablation switches actually
// disable their mechanisms.
func TestAblationFlagsChangeBehaviour(t *testing.T) {
	run := func(cfg Config) float64 {
		d := datagen.D1(datagen.Config{Scale: 0.008, Seed: 23})
		q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
		tv, err := q.Execute(d.Truth.Clean)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = 23
		cfg.TruthVis = tv
		s, err := NewSession(d.Dirty, q, d.KeyColumns, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(oracle.New(d.Truth, 23), 10); err != nil {
			t.Fatal(err)
		}
		dist, _ := s.DistToTruth()
		return dist
	}
	full := run(Config{})
	noGen := run(Config{NoGeneralization: true})
	if full >= noGen {
		t.Fatalf("generalization should help: full %v vs disabled %v", full, noGen)
	}
}

// TestCleanedViewFillsEveryColumn checks that CleanedView stays a full
// materialization while chart builds project: after each iteration,
// every cell of the cleaned view is non-null exactly when some member
// of its entity cluster has a non-null cell in that column, and the
// projected chart build agrees with it on the views' columns and leaves
// every other column null.
func TestCleanedViewFillsEveryColumn(t *testing.T) {
	d := datagen.D1(datagen.Config{Scale: 0.004, Seed: 5})
	q := vql.MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`)
	s, err := NewSession(d.Dirty, q, d.KeyColumns, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.viewCols) >= len(s.table.Schema()) {
		t.Fatalf("projected columns %v cover the whole schema; the test needs a narrower view", s.viewCols)
	}
	user := oracle.New(d.Truth, 5)
	for iter := 0; iter < 4; iter++ {
		full := s.CleanedView()
		projected := s.buildView(s.clusters, s.std, nil, s.viewCols)
		if full.NumRows() != projected.NumRows() {
			t.Fatalf("iter %d: %d cleaned rows vs %d projected", iter, full.NumRows(), projected.NumRows())
		}
		row := 0
		for _, g := range s.clusters.Groups(1) {
			if _, ok := s.table.RowIndex(g[0]); len(g) == 1 && !ok {
				continue
			}
			for c := range s.table.Schema() {
				some := false
				for _, id := range g {
					if v, ok := s.table.GetByID(id, c); ok && !v.IsNull() {
						some = true
					}
				}
				if got := full.Get(row, c); got.IsNull() == some {
					t.Fatalf("iter %d row %d column %d: cleaned cell %v, some member non-null: %v", iter, row, c, got, some)
				}
				want := dataset.Null(s.table.Schema()[c].Kind)
				if slices.Contains(s.viewCols, c) {
					want = full.Get(row, c)
				}
				if got := projected.Get(row, c); got != want {
					t.Fatalf("iter %d row %d column %d: projected cell %v, want %v", iter, row, c, got, want)
				}
			}
			row++
		}
		if _, err := s.RunIteration(user); err != nil {
			t.Fatal(err)
		}
	}
}
