package vql

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"visclean/internal/dataset"
	"visclean/internal/vis"
)

// This file implements the incremental query executor backing delta
// hypothesis pricing: the pipeline registers the base view's rows once,
// and each hypothetical repair is then evaluated as a (removed rows,
// added rows) delta instead of a full re-execution. The contract is
// bit-identity: Eval must return exactly the chart Execute would produce
// over the equivalent full row set — same points, same float bits, same
// order. Everything below is therefore arranged so that every float
// accumulation (per-group aggregation) happens through the same code in
// the same order as Execute, and every point lands where Execute's
// stable sort would put it.

// IncRow is one logical row of the view the incremental executor runs
// over. Rank is the row's stable order key: rows execute in ascending
// Rank order, and a delta identifies removed rows by Rank. The pipeline
// uses the owning entity cluster's smallest tuple id, which is unique
// per cluster and reproduces the view's row order. Vals must not be
// mutated after registration.
type IncRow struct {
	Rank int64
	Vals []dataset.Value
}

// contrib is one row's pre-resolved effect on the chart.
type contrib struct {
	rank   int64
	routed bool          // passes WHERE and carries a usable X
	key    string        // group label (TransformGroup)
	bin    int64         // bin id (TransformBin)
	y      dataset.Value // value fed to the aggregate
	point  vis.Point     // direct mark (TransformNone)
	hasPt  bool
}

// contribRef is one aggregated contribution retained per group.
type contribRef struct {
	rank int64
	y    dataset.Value
}

// keyState is the materialized state of one group or bin.
type keyState struct {
	contribs []contribRef // ascending rank = execution order
	bin      int64
	label    string // group label (TransformGroup)
	ok       bool   // the state produces a chart point
	mark     mark   // that point, valid when ok
}

// mark is one keyed chart point with its pre-sort position: the
// state's first contributing rank (GROUP) or its bin id (BIN). Execute
// emits keyed points in pre-sort order and then sorts them stably, so
// its final order is the SORT comparator with ties broken by pre — a
// total order whenever no sort key is NaN.
type mark struct {
	pt  vis.Point
	pre int64
}

// fold re-aggregates a state over its contributors in rank order and
// reports whether it produces a chart point.
func (inc *Incremental) fold(k *keyState) bool {
	var st aggState
	for _, c := range k.contribs {
		st.add(c.y)
	}
	y, ok := st.result(inc.q.Agg)
	k.ok = ok && len(k.contribs) > 0
	if !k.ok {
		return false
	}
	if inc.q.Transform == TransformGroup {
		k.mark = mark{pt: vis.Point{Label: k.label, Y: y}, pre: k.contribs[0].rank}
	} else {
		lo := float64(k.bin) * inc.q.BinInterval
		k.mark = mark{pt: vis.Point{Label: binLabel(lo, lo+inc.q.BinInterval), X: lo, HasX: true, Y: y}, pre: k.bin}
	}
	return true
}

// cmpMarks is Execute's final keyed chart order: the SORT comparator,
// then the pre-sort position that a stable sort keeps ties in.
func (q *Query) cmpMarks(a, b mark) int {
	if c := q.cmpPoints(a.pt, b.pt); c != 0 {
		return c
	}
	return cmp.Compare(a.pre, b.pre)
}

func cmpPre(a, b mark) int { return cmp.Compare(a.pre, b.pre) }

// Incremental evaluates one query over a registered base row set plus
// per-call deltas. Construction costs one full pass and one sort; a
// grouped or binned Eval costs O(delta + K + k log k) for k dirty
// groups and K emitted points (LIMIT, or every group without one). An
// Incremental is immutable after construction, so concurrent
// Eval calls are safe.
type Incremental struct {
	q     *Query
	xi    int
	yi    int
	wcols []int

	rows    []contrib
	rankPos map[int64]int

	keys     map[string]*keyState // TransformGroup
	bins     map[int64]*keyState  // TransformBin
	keyOrder []*keyState          // pre-sort order: appearance (group) / bin order (bin)
	// chart holds the base states that produce a point, in final chart
	// order. total is false when a base sort key is NaN; every keyed
	// Eval then takes the full-sort fallback.
	chart []*keyState
	total bool

	// basePts is the sorted+limited base chart, computed once at
	// construction through the general Eval path. The empty-delta fast
	// path (Base, and every hypothesis-decline fallback) copies it
	// instead of merging.
	basePts  []vis.Point
	baseDone bool
}

// NewIncremental validates the query against the schema and registers
// the base rows, which must arrive in strictly ascending Rank order (the
// order Execute would scan them in).
func (q *Query) NewIncremental(schema dataset.Schema, rows []IncRow) (*Incremental, error) {
	if err := q.Validate(schema); err != nil {
		return nil, err
	}
	inc := &Incremental{
		q:       q,
		xi:      schema.Index(q.X),
		yi:      schema.Index(q.Y),
		rankPos: make(map[int64]int, len(rows)),
	}
	inc.wcols = make([]int, len(q.Where))
	for k, p := range q.Where {
		inc.wcols[k] = schema.Index(p.Column)
	}

	inc.rows = make([]contrib, len(rows))
	for i, r := range rows {
		if i > 0 && rows[i-1].Rank >= r.Rank {
			return nil, fmt.Errorf("vql: incremental rows must have strictly ascending ranks (%d after %d)", r.Rank, rows[i-1].Rank)
		}
		inc.rows[i] = inc.contribution(r)
		inc.rankPos[r.Rank] = i
	}

	switch q.Transform {
	case TransformGroup:
		inc.keys = make(map[string]*keyState)
		for _, c := range inc.rows {
			if !c.routed {
				continue
			}
			st, exists := inc.keys[c.key]
			if !exists {
				st = &keyState{label: c.key}
				inc.keys[c.key] = st
				inc.keyOrder = append(inc.keyOrder, st)
			}
			st.contribs = append(st.contribs, contribRef{rank: c.rank, y: c.y})
		}
	case TransformBin:
		inc.bins = make(map[int64]*keyState)
		for _, c := range inc.rows {
			if !c.routed {
				continue
			}
			st, exists := inc.bins[c.bin]
			if !exists {
				st = &keyState{bin: c.bin}
				inc.bins[c.bin] = st
				inc.keyOrder = append(inc.keyOrder, st)
			}
			st.contribs = append(st.contribs, contribRef{rank: c.rank, y: c.y})
		}
		slices.SortFunc(inc.keyOrder, func(a, b *keyState) int { return cmp.Compare(a.bin, b.bin) })
	}
	inc.total = true
	for _, st := range inc.keyOrder {
		if inc.fold(st) {
			inc.chart = append(inc.chart, st)
			inc.total = inc.total && q.totalKey(st.mark.pt)
		}
	}
	slices.SortFunc(inc.chart, func(a, b *keyState) int { return q.cmpMarks(a.mark, b.mark) })
	// Materialize the base chart through the general path (baseDone is
	// still false here, so Eval merges), then arm the empty-delta
	// shortcut.
	inc.basePts = inc.Eval(nil, nil).Points
	inc.baseDone = true
	return inc, nil
}

// contribution resolves one row against the query, mirroring Execute's
// per-row logic (WHERE, key routing, null handling) exactly.
func (inc *Incremental) contribution(r IncRow) contrib {
	c := contrib{rank: r.Rank}
	for k, p := range inc.q.Where {
		if !matches(r.Vals[inc.wcols[k]], p) {
			return c
		}
	}
	xv := r.Vals[inc.xi]
	switch inc.q.Transform {
	case TransformNone:
		yv := r.Vals[inc.yi]
		if xv.IsNull() || yv.IsNull() {
			return c
		}
		y, _ := yv.Float()
		pt := vis.Point{Label: xv.String(), Y: y}
		if f, ok := xv.Float(); ok {
			pt.X, pt.HasX = f, true
		}
		c.point, c.hasPt = pt, true
	case TransformGroup:
		key, ok := xv.Text()
		if !ok {
			if xv.IsNull() {
				return c
			}
			key = xv.String()
		}
		c.key, c.y, c.routed = key, r.Vals[inc.yi], true
	case TransformBin:
		x, ok := xv.Float()
		if !ok {
			return c
		}
		c.bin = int64(math.Floor(x / inc.q.BinInterval))
		c.y, c.routed = r.Vals[inc.yi], true
	}
	return c
}

// Eval produces the chart for the base row set with the rows named in
// removed (by rank) dropped and the added rows inserted at their rank
// positions. added must be in ascending rank order; an added rank may
// reuse a removed one (a merged cluster inherits the smaller first id).
// The result is bit-identical to Execute over the equivalent view.
func (inc *Incremental) Eval(removed []int64, added []IncRow) *vis.Data {
	data := &vis.Data{Type: inc.q.Chart, XField: inc.q.X, YField: inc.q.Y}

	// Empty delta: the answer is the precomputed base chart. Copying the
	// point slice keeps the result as independent as the general path's
	// (callers may mutate it) while skipping the dirty map and the
	// merge entirely.
	if len(removed) == 0 && len(added) == 0 && inc.baseDone {
		if len(inc.basePts) > 0 {
			data.Points = append([]vis.Point(nil), inc.basePts...)
		}
		return data
	}

	if inc.q.Transform == TransformNone {
		data.Points = inc.q.sortAndLimit(inc.evalNone(removed, added))
	} else {
		data.Points = inc.evalKeyed(removed, added)
	}
	return data
}

// Base returns the chart of the unmodified base row set.
func (inc *Incremental) Base() *vis.Data { return inc.Eval(nil, nil) }

func removedSet(removed []int64) map[int64]struct{} {
	if len(removed) == 0 {
		return nil
	}
	set := make(map[int64]struct{}, len(removed))
	for _, r := range removed {
		set[r] = struct{}{}
	}
	return set
}

// evalNone assembles the direct-mark point list: surviving base points
// and added points merged in rank order.
func (inc *Incremental) evalNone(removed []int64, added []IncRow) []vis.Point {
	rm := removedSet(removed)
	var pts []vis.Point
	j := 0
	emitAddedBefore := func(rank int64) {
		for j < len(added) && added[j].Rank < rank {
			if c := inc.contribution(added[j]); c.hasPt {
				pts = append(pts, c.point)
			}
			j++
		}
	}
	for i := range inc.rows {
		c := &inc.rows[i]
		emitAddedBefore(c.rank)
		if _, gone := rm[c.rank]; gone {
			continue
		}
		if c.hasPt {
			pts = append(pts, c.point)
		}
	}
	emitAddedBefore(math.MaxInt64)
	return pts
}

// evalKeyed assembles the grouped/binned chart: clean states keep
// their base point, dirty states re-fold their contributor list in rank
// order (the same accumulation order Execute uses), and the k points
// they now produce are sorted and merged into the base chart order,
// stopping at LIMIT — O(LIMIT + k log k) rather than a sort of every
// point. When a sort key is NaN the order is not total, and the points
// are instead assembled in Execute's pre-sort order and fully sorted.
func (inc *Incremental) evalKeyed(removed []int64, added []IncRow) []vis.Point {
	rm := removedSet(removed)
	// dirty maps each touched base state to its added contributions;
	// born lists the states this delta creates, in appearance order.
	dirty := make(map[*keyState][]contribRef)
	for _, r := range removed {
		pos, ok := inc.rankPos[r]
		if !ok {
			continue
		}
		if c := &inc.rows[pos]; c.routed {
			st := inc.stateOf(c)
			if _, seen := dirty[st]; !seen {
				dirty[st] = nil
			}
		}
	}
	type bornKey struct {
		key string
		bin int64
	}
	var born []*keyState
	var bornBy map[bornKey]*keyState
	for _, row := range added {
		c := inc.contribution(row)
		if !c.routed {
			continue
		}
		ref := contribRef{rank: c.rank, y: c.y}
		if st := inc.stateOf(&c); st != nil {
			dirty[st] = append(dirty[st], ref)
			continue
		}
		bk := bornKey{key: c.key, bin: c.bin}
		st := bornBy[bk]
		if st == nil {
			if bornBy == nil {
				bornBy = make(map[bornKey]*keyState)
			}
			st = &keyState{label: c.key, bin: c.bin}
			bornBy[bk] = st
			born = append(born, st)
		}
		st.contribs = append(st.contribs, ref)
	}

	// Re-fold each dirty state over its surviving + added contributors,
	// merged in ascending rank order, and collect the points produced.
	total := inc.total
	marks := make([]mark, 0, len(dirty)+len(born))
	for st, adds := range dirty {
		nf := keyState{label: st.label, bin: st.bin, contribs: mergeContribs(st.contribs, adds, rm)}
		if inc.fold(&nf) {
			marks = append(marks, nf.mark)
			total = total && inc.q.totalKey(nf.mark.pt)
		}
	}
	for _, st := range born {
		if inc.fold(st) {
			marks = append(marks, st.mark)
			total = total && inc.q.totalKey(st.mark.pt)
		}
	}

	if total {
		slices.SortFunc(marks, inc.q.cmpMarks)
		return mergeMarks(inc.chart, dirty, marks, inc.q.cmpMarks, inc.q.Limit)
	}
	slices.SortFunc(marks, cmpPre)
	return inc.q.sortAndLimit(mergeMarks(inc.keyOrder, dirty, marks, cmpPre, 0))
}

// mergeMarks merges the clean states of base (those producing a point
// and not in dirty) with the sorted replacement marks, both in cmp
// order, and stops after limit points (limit ≤ 0: no limit).
func mergeMarks(base []*keyState, dirty map[*keyState][]contribRef, marks []mark, cmp func(a, b mark) int, limit int) []vis.Point {
	n := len(base) + len(marks)
	if limit > 0 && n > limit {
		n = limit
	}
	if n == 0 {
		return nil
	}
	clean := func(st *keyState) bool {
		_, isDirty := dirty[st]
		return st.ok && !isDirty
	}
	out := make([]vis.Point, 0, n)
	i, j := 0, 0
	for len(out) < n {
		for i < len(base) && !clean(base[i]) {
			i++
		}
		if i < len(base) && (j == len(marks) || cmp(base[i].mark, marks[j]) < 0) {
			out = append(out, base[i].mark.pt)
			i++
			continue
		}
		if j == len(marks) {
			break
		}
		out = append(out, marks[j].pt)
		j++
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// stateOf returns the base state a routed contribution belongs to, or
// nil when the key has no base state.
func (inc *Incremental) stateOf(c *contrib) *keyState {
	if inc.q.Transform == TransformGroup {
		return inc.keys[c.key]
	}
	return inc.bins[c.bin]
}

// mergeContribs merges the surviving base contributors with the added
// ones in ascending rank order. base is sorted; adds is sorted (Eval's
// input contract); rm removes by rank from base only.
func mergeContribs(base, adds []contribRef, rm map[int64]struct{}) []contribRef {
	out := make([]contribRef, 0, len(base)+len(adds))
	j := 0
	for _, c := range base {
		for j < len(adds) && adds[j].rank < c.rank {
			out = append(out, adds[j])
			j++
		}
		if _, gone := rm[c.rank]; gone {
			continue
		}
		out = append(out, c)
	}
	out = append(out, adds[j:]...)
	return out
}
