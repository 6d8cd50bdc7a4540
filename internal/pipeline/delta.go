package pipeline

import (
	"cmp"
	"slices"

	"visclean/internal/benefit"
	"visclean/internal/dataset"
	"visclean/internal/distance"
	"visclean/internal/em"
	"visclean/internal/goldenrec"
	"visclean/internal/vis"
	"visclean/internal/vql"
)

// deltaPricer prices hypotheses by incremental delta evaluation instead
// of the full view-rebuild-and-execute path. One pricer is built per
// iteration after freezeShared; it keeps the base view's rows, projected
// to the columns the views read, registers them with an incremental
// query executor per view and the base charts with incremental distance
// baselines, and each hypothesis then costs only its delta:
//
//   - an M/O cell override perturbs exactly one cluster's consolidated
//     row;
//   - an A-approval rewrites only the clusters whose rows carry a value
//     of the two merged synonym classes, found through per-column
//     value→clusters posting lists;
//   - a T-answer rebuilds the entity partition (one union-find pass over
//     the shared merge list, skipped by the fast paths in price) and
//     diffs it against the base partition — only base clusters that are
//     no longer intact, plus the posting-dirty clusters of the implied
//     A-equations, are rebuilt.
//
// A dirty cluster whose membership is unchanged (every M/O and A case,
// the posting-dirty clusters of the T cases) copies its base row and
// re-resolves only the columns the hypothesis changes; only regrouped
// clusters are consolidated column by column from scratch.
//
// The partition diff is sound because every tuple belongs to exactly one
// base cluster: if a hypothetical cluster mixed tuples of an intact base
// cluster with others, that base cluster's root would have the wrong
// size and GroupIntact would have flagged it dirty. Dirty tuples can
// therefore be regrouped among themselves.
//
// Bit-identity: every float produced here is computed by the same code
// in the same order as the full path — rows via resolveColumn (shared
// with buildView), charts via vql.Incremental (contract-tested against
// Execute), distances via distance.Baseline (replays Default's exact
// arithmetic). price returns ok=false whenever a hypothesis falls
// outside the incremental fast path (unknown value, construction
// failure); the estimator then falls back to the full rebuild, so
// correctness never depends on coverage.
//
// The pricer is immutable after construction and safe for concurrent
// price calls: it reads only frozen session state and per-call private
// structures.
type deltaPricer struct {
	s *Session
	// bases / execs hold one distance baseline and one incremental
	// executor per registered view, in registration order. All
	// executors are registered over the same base rows, projected to
	// the union of the views' columns, so one delta materialization
	// prices every view.
	bases []*distance.Baseline
	execs []*vql.Incremental

	groups  [][]dataset.TupleID // base partition, Groups(1) order
	ranks   []int64             // ranks[gi] = int64(groups[gi][0])
	rows    [][]dataset.Value   // projected base view row; nil: none
	groupOf map[dataset.TupleID]int

	// posting[col][rep] lists the groups (ascending) with a member whose
	// col value canonicalizes to rep; rawRep[col][raw] resolves a raw
	// value to its canonical representative under the frozen base
	// standardizers. Both are built single-threaded here because
	// Standardizer.Canonical may write its cache on first sight of a
	// value — at price time only these read-only maps are consulted.
	posting map[string]map[string][]int
	rawRep  map[string]map[string]string

	// splitTouched[gi] marks base groups containing an endpoint of a
	// user cannot-link. T-hypothesis fast paths (see price) are only
	// sound for groups no cannot-link touches.
	splitTouched []bool

	builder  *em.ClusterBuilder
	yNumeric bool
}

// newDeltaPricer captures the base state of one iteration; bases holds
// each view's current chart in registration order. Callers must
// freezeShared first. Returns nil when any view's query cannot be
// evaluated incrementally (the estimator then uses the full path
// throughout).
func (s *Session) newDeltaPricer(bases []*vis.Data) *deltaPricer {
	p := &deltaPricer{
		s:        s,
		groups:   s.clusters.Groups(1),
		groupOf:  make(map[dataset.TupleID]int),
		posting:  make(map[string]map[string][]int),
		rawRep:   make(map[string]map[string]string),
		yNumeric: s.table.Schema()[s.yCol].Kind == dataset.Float,
	}
	p.bases = make([]*distance.Baseline, len(s.queries))
	for v := range s.queries {
		p.bases[v] = s.baselineFor(v, bases[v])
	}
	p.ranks = make([]int64, len(p.groups))
	p.rows = make([][]dataset.Value, len(p.groups))

	rows := make([]vql.IncRow, 0, len(p.groups))
	for gi, g := range p.groups {
		p.ranks[gi] = int64(g[0])
		for _, id := range g {
			p.groupOf[id] = gi
		}
		if vals, ok := s.viewRowFor(g, s.std, nil, s.viewCols); ok {
			p.rows[gi] = vals
			rows = append(rows, vql.IncRow{Rank: p.ranks[gi], Vals: vals})
		}
	}
	p.execs = make([]*vql.Incremental, len(s.queries))
	for v, q := range s.queries {
		exec, err := q.NewIncremental(s.table.Schema(), rows)
		if err != nil {
			return nil
		}
		p.execs[v] = exec
	}

	schema := s.table.Schema()
	for _, c := range s.aColumns {
		name := schema[c].Name
		st := s.std[name]
		if st == nil {
			continue
		}
		reps := make(map[string]string)
		lists := make(map[string][]int)
		for gi, g := range p.groups {
			for _, id := range g {
				v, ok := s.table.GetByID(id, c)
				if !ok {
					continue
				}
				txt, ok := v.Text()
				if !ok {
					continue
				}
				rep, seen := reps[txt]
				if !seen {
					rep = st.Canonical(txt)
					reps[txt] = rep
				}
				if l := lists[rep]; len(l) == 0 || l[len(l)-1] != gi {
					lists[rep] = append(l, gi)
				}
			}
		}
		p.rawRep[name] = reps
		p.posting[name] = lists
	}

	p.splitTouched = make([]bool, len(p.groups))
	for _, sp := range s.split {
		if gi, ok := p.groupOf[sp.A]; ok {
			p.splitTouched[gi] = true
		}
		if gi, ok := p.groupOf[sp.B]; ok {
			p.splitTouched[gi] = true
		}
	}

	p.builder = em.NewClusterBuilder(s.table, s.mergeList, em.ClusterConfig{
		Threshold: s.cfg.ClusterThreshold,
		Confirmed: s.confirmed,
		Split:     s.split,
	})
	return p
}

// delta is one hypothesis's change to the base view rows: base groups
// dissolved, member lists rebuilt in full, and base groups whose
// membership is unchanged, which copy their base row and re-resolve
// only the columns the hypothesis changes.
type delta struct {
	gone  []int
	fresh [][]dataset.TupleID
	same  []int
	cols  []int
	std   map[string]*goldenrec.Standardizer
	ov    *dataset.Overlay
}

// price evaluates one (canonicalized) hypothesis incrementally. ok=false
// requests the full-rebuild fallback.
func (p *deltaPricer) price(h benefit.Hypothesis) (float64, bool) {
	switch h.Kind {
	case benefit.MImpute, benefit.ORepair:
		// Guards mirror hypotheticalCharts: an inapplicable repair
		// prices as zero on the full path (nil hypothetical charts).
		if _, ok := p.s.table.RowIndex(h.ID); !ok {
			return 0, true
		}
		if !p.yNumeric {
			return 0, true
		}
		gi, ok := p.groupOf[h.ID]
		if !ok {
			return 0, false
		}
		ov := p.s.table.Overlay()
		if ov.Set(h.ID, p.s.yCol, dataset.Num(h.Value)) != nil {
			return 0, false
		}
		return p.eval(delta{same: []int{gi}, cols: []int{p.s.yCol}, std: p.s.std, ov: ov})

	case benefit.AApprove:
		if p.s.std[h.Column] == nil {
			return 0, true // full path: nil hypothetical chart
		}
		changes := []stdChange{{name: h.Column, v1: h.V1, v2: h.V2}}
		dirty, ok := p.postingDirty(changes)
		if !ok {
			return 0, false
		}
		return p.eval(delta{same: sortedGroups(dirty, nil), cols: p.changedCols(changes), std: p.s.stdOverride(changes)})

	case benefit.TConfirm, benefit.TSplit:
		// Fast paths that skip the union-find rebuild entirely. Each is
		// provably partition-exact (see DESIGN.md §10 for the arguments;
		// the pricer-equivalence suite enforces bit-identity):
		//
		//   - a cannot-link between tuples already in different base
		//     clusters blocks nothing — had any merge been newly
		//     blocked, its first occurrence would require the two
		//     trajectories to unite, contradicting their distinct final
		//     groups. Partition unchanged.
		//   - a must-link inside one base cluster commutes with the
		//     merges that formed that cluster: the early union never
		//     introduces a block (a cannot-link between any two of the
		//     cluster's parts or absorbed groups would have prevented
		//     the cluster from forming). Partition unchanged; only the
		//     implied A-equations' posting-dirty groups re-resolve.
		//   - a must-link across two base clusters neither touched by
		//     any cannot-link is exactly their two-group union: any
		//     additional merge into the combined group would need a
		//     blocked/unblocked decision to flip, which requires a
		//     cannot-link endpoint inside one of the two groups.
		giA, okA := p.groupOf[h.Pair.A]
		giB, okB := p.groupOf[h.Pair.B]
		if okA && okB {
			if h.Kind == benefit.TSplit && giA != giB {
				return p.eval(delta{std: p.s.std})
			}
			if h.Kind == benefit.TConfirm {
				changes := p.s.tPairChanges(h.Pair)
				postDirty, ok := p.postingDirty(changes)
				if !ok {
					return 0, false
				}
				d := delta{cols: p.changedCols(changes), std: p.s.std}
				if override := p.s.stdOverride(changes); override != nil {
					d.std = override
				}
				if giA == giB {
					d.same = sortedGroups(postDirty, nil)
					return p.eval(d)
				}
				if !p.splitTouched[giA] && !p.splitTouched[giB] {
					merged := make([]dataset.TupleID, 0, len(p.groups[giA])+len(p.groups[giB]))
					merged = append(merged, p.groups[giA]...)
					merged = append(merged, p.groups[giB]...)
					slices.Sort(merged)
					d.gone = []int{giA, giB}
					d.fresh = [][]dataset.TupleID{merged}
					d.same = sortedGroups(postDirty, func(gi int) bool { return gi == giA || gi == giB })
					return p.eval(d)
				}
			}
		}

		var cl *em.Clusters
		var changes []stdChange
		if h.Kind == benefit.TConfirm {
			cl = p.builder.Build([]em.Pair{h.Pair}, nil)
			changes = p.s.tPairChanges(h.Pair)
		} else {
			cl = p.builder.Build(nil, []em.Pair{h.Pair})
		}
		postDirty, ok := p.postingDirty(changes)
		if !ok {
			return 0, false
		}
		d := delta{cols: p.changedCols(changes), std: p.s.std}
		if override := p.s.stdOverride(changes); override != nil {
			d.std = override
		}

		// Partition diff: base clusters no longer intact are dissolved and
		// their tuples regrouped by their hypothetical root.
		var dirtyTuples []dataset.TupleID
		partDirty := make(map[int]struct{})
		for gi, g := range p.groups {
			if !cl.GroupIntact(g) {
				d.gone = append(d.gone, gi)
				partDirty[gi] = struct{}{}
				dirtyTuples = append(dirtyTuples, g...)
			}
		}
		byRoot := make(map[int][]dataset.TupleID)
		var rootOrder []int
		for _, id := range dirtyTuples {
			root, ok := cl.Root(id)
			if !ok {
				return 0, false
			}
			if _, seen := byRoot[root]; !seen {
				rootOrder = append(rootOrder, root)
			}
			byRoot[root] = append(byRoot[root], id)
		}
		d.fresh = make([][]dataset.TupleID, 0, len(rootOrder))
		for _, root := range rootOrder {
			members := byRoot[root]
			slices.Sort(members)
			d.fresh = append(d.fresh, members)
		}
		// Posting-dirty clusters keep their membership but re-resolve
		// under the standardizer override (unless already dissolved).
		d.same = sortedGroups(postDirty, func(gi int) bool {
			_, dissolved := partDirty[gi]
			return dissolved
		})
		return p.eval(d)

	default:
		return 0, false
	}
}

// postingDirty unions the posting lists of every change's two value
// classes. ok=false when a value is unknown to the base index.
func (p *deltaPricer) postingDirty(changes []stdChange) (map[int]struct{}, bool) {
	if len(changes) == 0 {
		return nil, true
	}
	out := make(map[int]struct{})
	for _, ch := range changes {
		reps := p.rawRep[ch.name]
		if reps == nil {
			return nil, false
		}
		r1, ok1 := reps[ch.v1]
		r2, ok2 := reps[ch.v2]
		if !ok1 || !ok2 {
			return nil, false
		}
		for _, gi := range p.posting[ch.name][r1] {
			out[gi] = struct{}{}
		}
		for _, gi := range p.posting[ch.name][r2] {
			out[gi] = struct{}{}
		}
	}
	return out, true
}

// sortedGroups lists the groups of a dirty set in ascending order,
// leaving out those skip reports (skip may be nil).
func sortedGroups(dirty map[int]struct{}, skip func(gi int) bool) []int {
	out := make([]int, 0, len(dirty))
	for gi := range dirty {
		if skip == nil || !skip(gi) {
			out = append(out, gi)
		}
	}
	slices.Sort(out)
	return out
}

// changedCols maps standardizer changes to the columns they rewrite.
// Every A-column is also a projected view column (registerViewColumns),
// so re-resolving these keeps a reused row equal to a full rebuild.
func (p *deltaPricer) changedCols(changes []stdChange) []int {
	cols := make([]int, len(changes))
	for i, ch := range changes {
		cols[i] = p.s.table.ColumnIndex(ch.name)
	}
	return cols
}

// eval materializes a delta into the hypothetical charts and returns
// their summed distance from the base charts. A reused row is its base
// row with d.cols re-resolved: the other projected columns see the same
// members, cells and standardizers as in the base, so the row equals
// what viewRowFor would build.
func (p *deltaPricer) eval(d delta) (float64, bool) {
	removed := make([]int64, 0, len(d.gone)+len(d.same))
	added := make([]vql.IncRow, 0, len(d.fresh)+len(d.same))
	for _, gi := range d.gone {
		if p.rows[gi] != nil {
			removed = append(removed, p.ranks[gi])
		}
	}
	for _, gi := range d.same {
		base := p.rows[gi]
		if base == nil {
			continue
		}
		vals := slices.Clone(base)
		for _, c := range d.cols {
			vals[c] = p.s.resolveColumn(p.groups[gi], c, d.std, d.ov)
		}
		removed = append(removed, p.ranks[gi])
		added = append(added, vql.IncRow{Rank: p.ranks[gi], Vals: vals})
	}
	for _, g := range d.fresh {
		if vals, ok := p.s.viewRowFor(g, d.std, d.ov, p.s.viewCols); ok {
			added = append(added, vql.IncRow{Rank: int64(g[0]), Vals: vals})
		}
	}
	slices.SortFunc(added, func(a, b vql.IncRow) int { return cmp.Compare(a.Rank, b.Rank) })
	// Summed in registration order from the first term, as the full
	// path does, so a one-view price keeps the sign of a −0.0.
	total := p.bases[0].Distance(p.execs[0].Eval(removed, added))
	for v := 1; v < len(p.execs); v++ {
		total += p.bases[v].Distance(p.execs[v].Eval(removed, added))
	}
	return total, true
}
