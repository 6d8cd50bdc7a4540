package vql

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"visclean/internal/dataset"
	"visclean/internal/vis"
)

// incSchema is the row shape the incremental-executor tests use.
var incSchema = dataset.Schema{
	{Name: "Venue", Kind: dataset.String},
	{Name: "Year", Kind: dataset.Float},
	{Name: "Citations", Kind: dataset.Float},
}

func incRow(rank int64, venue string, year, cites dataset.Value) IncRow {
	return IncRow{Rank: rank, Vals: []dataset.Value{dataset.Str(venue), year, cites}}
}

// applyDelta materializes the delta the incremental executor evaluates
// into a plain table, in ascending rank order — the reference Execute
// runs over it.
func applyDelta(t *testing.T, base []IncRow, removed []int64, added []IncRow) *dataset.Table {
	t.Helper()
	rm := map[int64]bool{}
	for _, r := range removed {
		rm[r] = true
	}
	var rows []IncRow
	for _, r := range base {
		if !rm[r.Rank] {
			rows = append(rows, r)
		}
	}
	rows = append(rows, added...)
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].Rank < rows[i].Rank {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	tbl := dataset.NewTable(incSchema)
	for _, r := range rows {
		tbl.MustAppend(r.Vals)
	}
	return tbl
}

// assertSameData requires bit-exact equality — the incremental
// executor's whole contract. Floats compare by their bits, so a NaN
// equals the same NaN and −0 differs from +0.
func assertSameData(t *testing.T, label string, got, want *vis.Data) {
	t.Helper()
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%s: point counts differ: got %d want %d\ngot  %+v\nwant %+v",
			label, len(got.Points), len(want.Points), got.Points, want.Points)
	}
	bits := func(p vis.Point) [4]any {
		return [4]any{p.Label, p.HasX, math.Float64bits(p.X), math.Float64bits(p.Y)}
	}
	for i := range got.Points {
		if bits(got.Points[i]) != bits(want.Points[i]) {
			t.Fatalf("%s: point %d differs: got %+v want %+v", label, i, got.Points[i], want.Points[i])
		}
	}
}

// checkDelta runs one (removed, added) delta through Eval and through
// Execute-over-the-equivalent-table and compares.
func checkDelta(t *testing.T, q *Query, base []IncRow, removed []int64, added []IncRow) {
	t.Helper()
	inc, err := q.NewIncremental(incSchema, base)
	if err != nil {
		t.Fatal(err)
	}
	got := inc.Eval(removed, added)
	want, err := q.Execute(applyDelta(t, base, removed, added))
	if err != nil {
		t.Fatal(err)
	}
	assertSameData(t, fmt.Sprintf("removed=%v added=%d", removed, len(added)), got, want)
}

func incBase() []IncRow {
	num := dataset.Num
	null := dataset.Null(dataset.Float)
	return []IncRow{
		incRow(0, "SIGMOD", num(2013), num(174)),
		incRow(2, "ICDE", num(2013), num(15)),
		incRow(5, "SIGMOD", num(2014), null),
		incRow(6, "VLDB", num(2014), num(55)),
		incRow(9, "ICDE", num(2015), num(42)),
		incRow(12, "KDD", num(2015), num(7)),
	}
}

var incQueries = []string{
	`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 10`,
	`VISUALIZE bar SELECT Venue, AVG(Citations) FROM D TRANSFORM GROUP BY Venue SORT X BY ASC`,
	`VISUALIZE bar SELECT Venue, COUNT(Citations) FROM D TRANSFORM GROUP BY Venue`,
	`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue WHERE Year >= 2014 SORT Y BY DESC`,
	`VISUALIZE bar SELECT Year, SUM(Citations) FROM D TRANSFORM BIN Year BY INTERVAL 1`,
	`VISUALIZE bar SELECT Year, Citations FROM D`,
	`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 2`,
}

// TestIncrementalEvalMatchesExecute sweeps deltas — removals, additions,
// new groups, emptied groups, rank reuse, null cells — across query
// shapes and compares every chart bit for bit.
func TestIncrementalEvalMatchesExecute(t *testing.T) {
	num := dataset.Num
	null := dataset.Null(dataset.Float)
	deltas := []struct {
		name    string
		removed []int64
		added   []IncRow
	}{
		{name: "noop"},
		{name: "remove-one", removed: []int64{2}},
		{name: "remove-all-of-group", removed: []int64{2, 9}},
		{name: "remove-everything", removed: []int64{0, 2, 5, 6, 9, 12}},
		{name: "add-new-group", added: []IncRow{incRow(3, "CIDR", num(2013), num(9))}},
		{name: "add-to-existing-group", added: []IncRow{incRow(13, "VLDB", num(2016), num(3))}},
		{name: "add-before-first", added: []IncRow{incRow(-1, "AAAI", num(2012), num(1))}},
		{name: "replace-same-rank", removed: []int64{5}, added: []IncRow{incRow(5, "SIGMOD", num(2014), num(100))}},
		{name: "merge-two-rows", removed: []int64{0, 5}, added: []IncRow{incRow(0, "SIGMOD", num(2013), num(274))}},
		{name: "null-added", added: []IncRow{incRow(7, "VLDB", num(2014), null)}},
		{name: "group-rename", removed: []int64{6}, added: []IncRow{incRow(6, "Very Large Data Bases", num(2014), num(55))}},
		{name: "reorder-first-appearance", removed: []int64{0}, added: []IncRow{incRow(10, "SIGMOD", num(2013), num(174))}},
	}
	for _, src := range incQueries {
		q := MustParse(src)
		for _, d := range deltas {
			t.Run(fmt.Sprintf("%s/%s", q.Chart, d.name), func(t *testing.T) {
				checkDelta(t, q, incBase(), d.removed, d.added)
			})
		}
	}
}

// TestIncrementalBaseMatchesExecute checks the zero-delta chart equals a
// straight execution of the base rows.
func TestIncrementalBaseMatchesExecute(t *testing.T) {
	for _, src := range incQueries {
		q := MustParse(src)
		inc, err := q.NewIncremental(incSchema, incBase())
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Execute(applyDelta(t, incBase(), nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		assertSameData(t, src, inc.Base(), want)
	}
}

// TestIncrementalBaseFastPath pins the empty-delta shortcut's
// bit-identity against the general path. Eval with an unknown removed
// rank takes the allocating walk but produces the same chart (no group
// is dirtied), so the two paths can be compared point for point.
func TestIncrementalBaseFastPath(t *testing.T) {
	for _, src := range incQueries {
		q := MustParse(src)
		inc, err := q.NewIncremental(incSchema, incBase())
		if err != nil {
			t.Fatal(err)
		}
		fast := inc.Base()
		slow := inc.Eval([]int64{-999}, nil) // unknown rank: no-op delta, general path
		assertSameData(t, src, fast, slow)

		// The fast path must hand out an independent copy: mutating one
		// result must not leak into the next.
		if len(fast.Points) > 0 {
			fast.Points[0].Y += 1e6
			again := inc.Base()
			assertSameData(t, src+" after mutation", again, slow)
		}
	}
}

// TestIncrementalBaseAllocs pins the empty-delta shortcut's allocation
// budget: one vis.Data plus one point-slice copy. The general path
// allocates the dirty/folded maps and the live slice every call; this
// test is what keeps the Base() hot path from quietly regressing to it.
func TestIncrementalBaseAllocs(t *testing.T) {
	q := MustParse(incQueries[0])
	inc, err := q.NewIncremental(incSchema, incBase())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if inc.Eval(nil, nil) == nil {
			t.Fatal("nil chart")
		}
	})
	if allocs > 2 {
		t.Fatalf("Eval(nil, nil) allocates %.0f objects per call, want ≤ 2", allocs)
	}
}

// TestIncrementalLimitTopKChurn targets the LIMIT boundary of the top-K
// merge: deltas that push a dirty group out of the top-K, pull one in
// from below the cut, or reshuffle a tie exactly at the boundary. Every case is checked bit-identical against Execute
// over the equivalent table.
func TestIncrementalLimitTopKChurn(t *testing.T) {
	num := dataset.Num
	// Base sums (SUM Citations, DESC): SIGMOD=174, ICDE=57, VLDB=55, KDD=7.
	deltas := []struct {
		name    string
		removed []int64
		added   []IncRow
	}{
		// The leader shrinks to last place and drops below the cut.
		{name: "leader-drops-out", removed: []int64{0}, added: []IncRow{incRow(0, "SIGMOD", num(2013), num(1))}},
		// A below-cut group is boosted past the boundary and enters.
		{name: "tail-enters", added: []IncRow{incRow(13, "KDD", num(2016), num(500))}},
		// Both at once: the displaced and the promoted swap slots.
		{name: "swap-across-boundary", removed: []int64{2, 9}, added: []IncRow{
			incRow(2, "ICDE", num(2013), num(1)),
			incRow(13, "KDD", num(2016), num(400)),
		}},
		// A dirty group lands exactly on a boundary tie (VLDB 55 → 57 =
		// ICDE): ordering must match Execute's tiebreak, not map order.
		{name: "tie-at-boundary", added: []IncRow{incRow(14, "VLDB", num(2016), num(2))}},
		// A new group is born directly inside the top-K.
		{name: "new-group-enters", added: []IncRow{incRow(3, "CIDR", num(2013), num(999))}},
		// The boundary group is emptied outright; the next one moves up.
		{name: "boundary-group-vanishes", removed: []int64{2, 9}},
	}
	for _, limit := range []int{1, 2, 3} {
		src := fmt.Sprintf(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT %d`, limit)
		q := MustParse(src)
		for _, d := range deltas {
			t.Run(fmt.Sprintf("limit%d/%s", limit, d.name), func(t *testing.T) {
				checkDelta(t, q, incBase(), d.removed, d.added)
			})
		}
	}
	// Ascending sort flips which end of the order the cut falls on.
	for _, d := range deltas {
		q := MustParse(`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY ASC LIMIT 2`)
		t.Run("asc-limit2/"+d.name, func(t *testing.T) {
			checkDelta(t, q, incBase(), d.removed, d.added)
		})
	}
}

// TestIncrementalRejectsUnsortedRanks guards the registration contract.
func TestIncrementalRejectsUnsortedRanks(t *testing.T) {
	q := MustParse(incQueries[0])
	rows := []IncRow{
		incRow(5, "A", dataset.Num(2013), dataset.Num(1)),
		incRow(5, "B", dataset.Num(2013), dataset.Num(2)),
	}
	if _, err := q.NewIncremental(incSchema, rows); err == nil {
		t.Fatal("duplicate ranks accepted")
	}
}

// TestIncrementalTopKMergeSweep sweeps random deltas through Eval's
// top-K merge and compares every chart bit for bit with Execute over
// the equivalent table. Y values come from a small set so points tie
// and fall back to the label order; ±Inf cells make some SUM/AVG keys
// NaN, the one case where the chart order is not total and Eval must
// fully sort instead. The sweep then checks that it exercised each case
// the merge has to get right.
func TestIncrementalTopKMergeSweep(t *testing.T) {
	queries := []string{
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 1`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 3`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY ASC LIMIT 2`,
		`VISUALIZE bar SELECT Venue, AVG(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 3`,
		`VISUALIZE bar SELECT Venue, COUNT(Citations) FROM D TRANSFORM GROUP BY Venue SORT Y BY DESC LIMIT 2`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT X BY ASC LIMIT 3`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue SORT X BY DESC LIMIT 2`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue LIMIT 2`,
		`VISUALIZE bar SELECT Venue, SUM(Citations) FROM D TRANSFORM GROUP BY Venue WHERE Year >= 2012 SORT Y BY DESC LIMIT 2`,
		`VISUALIZE bar SELECT Year, SUM(Citations) FROM D TRANSFORM BIN Year BY INTERVAL 2`,
		`VISUALIZE bar SELECT Year, AVG(Citations) FROM D TRANSFORM BIN Year BY INTERVAL 2 SORT Y BY DESC`,
		`VISUALIZE bar SELECT Year, SUM(Citations) FROM D TRANSFORM BIN Year BY INTERVAL 2 SORT X BY DESC LIMIT 2`,
	}
	rng := rand.New(rand.NewSource(14))
	venues := []string{"SIGMOD", "VLDB", "ICDE", "KDD", "PODS", "CIDR"} // the last two only arrive in deltas
	cell := func() dataset.Value {
		switch r := rng.Float64(); {
		case r < 0.08:
			return dataset.Null(dataset.Float)
		case r < 0.12:
			return dataset.Num(math.Inf(1))
		case r < 0.16:
			return dataset.Num(math.Inf(-1))
		default:
			return dataset.Num([]float64{1, 2, 3, 5}[rng.Intn(4)])
		}
	}
	row := func(rank int64, venues []string) IncRow {
		return incRow(rank, venues[rng.Intn(len(venues))], dataset.Num(float64(2010+rng.Intn(6))), cell())
	}

	var ties, entered, left, born, emptied, nan, fellBack int
	labels := func(d *vis.Data) map[string]bool {
		out := map[string]bool{}
		for _, p := range d.Points {
			out[p.Label] = true
		}
		return out
	}
	for trial := 0; trial < 300; trial++ {
		var base []IncRow
		rank := int64(0)
		for n := 1 + rng.Intn(12); len(base) < n; {
			rank += 1 + int64(rng.Intn(3))
			base = append(base, row(rank, venues[:4]))
		}
		taken := map[int64]bool{}
		for _, r := range base {
			taken[r.Rank] = true
		}
		var removed []int64
		var free []int64 // ranks an added row may take: removed or unused
		for _, r := range base {
			if rng.Float64() < 0.3 {
				removed = append(removed, r.Rank)
				free = append(free, r.Rank)
			}
		}
		for r := int64(-2); r <= rank+3; r++ {
			if !taken[r] {
				free = append(free, r)
			}
		}
		rng.Shuffle(len(free), func(a, b int) { free[a], free[b] = free[b], free[a] })
		var added []IncRow
		for _, r := range free[:rng.Intn(5)] {
			added = append(added, row(r, venues))
		}
		slices.SortFunc(added, func(a, b IncRow) int { return cmp.Compare(a.Rank, b.Rank) })

		for _, src := range queries {
			q := MustParse(src)
			inc, err := q.NewIncremental(incSchema, base)
			if err != nil {
				t.Fatal(err)
			}
			got := inc.Eval(removed, added)
			after := applyDelta(t, base, removed, added)
			want, err := q.Execute(after)
			if err != nil {
				t.Fatal(err)
			}
			assertSameData(t, fmt.Sprintf("trial %d %s removed=%v added=%v", trial, src, removed, added), got, want)

			// Coverage: compare against the unlimited charts before and
			// after the delta.
			unlimited := *q
			unlimited.Limit = 0
			allBefore, _ := unlimited.Execute(applyDelta(t, base, nil, nil))
			allAfter, _ := unlimited.Execute(after)
			before, inAfter, inAllBefore, inAllAfter := labels(inc.Base()), labels(want), labels(allBefore), labels(allAfter)
			for l := range inAfter {
				if !before[l] && inAllBefore[l] {
					entered++
				}
			}
			for l := range before {
				if !inAfter[l] && inAllAfter[l] {
					left++
				}
			}
			for l := range inAllAfter {
				if !inAllBefore[l] {
					born++
				}
			}
			for l := range inAllBefore {
				if !inAllAfter[l] {
					emptied++
				}
			}
			isNaN := false
			for i, p := range allAfter.Points {
				isNaN = isNaN || math.IsNaN(p.Y)
				if i > 0 && q.Sort == AxisY && p.Y == allAfter.Points[i-1].Y {
					ties++
				}
			}
			if isNaN {
				nan++
				if q.Sort == AxisY {
					fellBack++
				}
			}
		}
	}
	for name, n := range map[string]int{
		"Y ties": ties, "groups entering the top-K": entered, "groups leaving the top-K": left,
		"new groups": born, "emptied groups": emptied, "NaN keys": nan, "NaN-key fallbacks": fellBack,
	} {
		if n == 0 {
			t.Errorf("the sweep never exercised %s", name)
		}
	}
}
