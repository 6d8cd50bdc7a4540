package pipeline

// The incremental-pricing equivalence suite. The delta pricer's contract
// is that it is a pure optimization: for every hypothesis it either
// returns the exact float the full rebuild path would (bit-identical,
// not approximately equal), or declines so the estimator falls back.
// These tests enforce the contract both per-hypothesis (every priced
// hypothesis, both ways, on multiple seeds and at advancing session
// states) and end-to-end (whole sessions with the pricer on vs off must
// produce byte-identical traces across selectors, seeds, and worker
// counts). scripts/check.sh runs this file under -race alongside the
// determinism suite.

import (
	"encoding/json"
	"fmt"
	"testing"

	"visclean/internal/benefit"
	"visclean/internal/datagen"
	"visclean/internal/em"
	"visclean/internal/erg"
	"visclean/internal/oracle"
	"visclean/internal/vql"
)

// collectHypotheses enumerates every hypothesis the estimator would
// price for the graph, in annotation order.
func collectHypotheses(g *erg.Graph) []benefit.Hypothesis {
	var hs []benefit.Hypothesis
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.HasT {
			pair := em.MakePair(e.A, e.B)
			hs = append(hs,
				benefit.Hypothesis{Kind: benefit.TConfirm, Pair: pair},
				benefit.Hypothesis{Kind: benefit.TSplit, Pair: pair})
		}
		if e.HasA {
			hs = append(hs, benefit.Hypothesis{Kind: benefit.AApprove, Column: e.ACol, V1: e.AV1, V2: e.AV2})
		}
	}
	for _, r := range g.Repairs() {
		kind := benefit.ORepair
		if r.Kind == erg.Missing {
			kind = benefit.MImpute
		}
		hs = append(hs, benefit.Hypothesis{Kind: kind, ID: r.ID, Value: r.Suggested})
	}
	return hs
}

// TestIncrementalPricingBitIdentical prices every hypothesis of the
// first ten iterations' ERGs both incrementally and via full rebuild,
// on two seeds, and requires exact float equality wherever the pricer
// accepts — plus that it accepts the overwhelming majority (the fast
// path must actually be the common path for the optimization to mean
// anything). Ten iterations reach merged clusters and approved
// synonyms, so the reused-row paths see multi-member groups and
// standardizer overrides.
func TestIncrementalPricingBitIdentical(t *testing.T) {
	for _, seed := range []int64{7, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			s, user := newDetSession(t, SelectGSS, seed, 1)
			assertPricingBitIdentical(t, s, user, 10)
		})
	}
}

// TestIncrementalPricingBitIdenticalWhere runs the same check on a view
// with a numeric and a categorical WHERE conjunct, so the projected
// column set carries WHERE columns beside X and Y, and synonym
// approvals move rows across the predicate.
func TestIncrementalPricingBitIdenticalWhere(t *testing.T) {
	const src = `VISUALIZE bar SELECT Venue, SUM(Citations) FROM D1 TRANSFORM GROUP BY Venue WHERE Year >= 2005 AND Affiliation >= 'M' SORT Y BY DESC LIMIT 10`
	for _, seed := range []int64{7, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			d := datagen.D1(datagen.Config{Scale: 0.004, Seed: seed})
			s, err := NewSession(d.Dirty, vql.MustParse(src), d.KeyColumns, Config{Selector: SelectGSS, Seed: seed, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			assertPricingBitIdentical(t, s, oracle.New(d.Truth, seed), 10)
		})
	}
}

// assertPricingBitIdentical runs up to iters iterations of s and, before
// each, prices every hypothesis of its ERG through the delta pricer and
// through the full rebuild (the per-view distance sum in registration
// order, as benefit.Estimator adds it), requiring bit-equal prices
// wherever the pricer accepts and acceptance of at least ~90%. With
// iters ≥ 10 it also requires that the session reached a merged cluster
// and an approved synonym, the states the reused-row paths exist for.
func assertPricingBitIdentical(t *testing.T, s *Session, user User, iters int) {
	t.Helper()
	priced, declined := 0, 0
	for iter := 0; iter < iters; iter++ {
		bases, err := s.CurrentVisAll()
		if err != nil {
			t.Fatal(err)
		}
		// The charts, built over rows projected to the views' columns,
		// must equal the queries run over the full cleaned relation.
		cleaned := s.CleanedView()
		for v, q := range s.queries {
			want, err := q.Execute(cleaned)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%+v", bases[v]), fmt.Sprintf("%+v", want); got != want {
				t.Fatalf("iter %d view %d: projected chart %s != full-row chart %s", iter, v, got, want)
			}
		}
		qs := s.detectQuestions()
		g := s.buildERG(qs)
		s.freezeShared()
		p := s.newDeltaPricer(bases)
		if p == nil {
			t.Fatal("newDeltaPricer returned nil for executable queries")
		}
		for _, h := range collectHypotheses(g) {
			full, summed := 0.0, false
			after := s.hypotheticalCharts(h)
			for v, base := range bases {
				if after == nil || after[v] == nil {
					continue
				}
				if d := s.cfg.Dist(base, after[v]); summed {
					full += d
				} else {
					full, summed = d, true
				}
			}
			inc, ok := p.price(h)
			if !ok {
				declined++
				continue
			}
			priced++
			if inc != full {
				t.Fatalf("iter %d %v %+v: incremental %v != full %v",
					iter, h.Kind, h, inc, full)
			}
		}
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
	}
	if priced == 0 {
		t.Fatal("delta pricer accepted no hypotheses")
	}
	if declined > priced/10 {
		t.Errorf("delta pricer declined %d of %d hypotheses; fast path is not the common path",
			declined, priced+declined)
	}
	if iters < 10 {
		return
	}
	merged := false
	for _, g := range s.clusters.Groups(1) {
		merged = merged || len(g) > 1
	}
	if !merged || len(s.aApproved) == 0 {
		t.Errorf("after %d iterations: merged cluster %v, approved synonyms %d — the reused-row paths went unexercised",
			iters, merged, len(s.aApproved))
	}
}

// runIncSession is runDetSession with the incremental pricer toggled.
func runIncSession(t testing.TB, selector SelectorKind, seed int64, workers int, noInc bool) detTrace {
	t.Helper()
	s, user := newIncSession(t, selector, seed, workers, noInc)
	var tr detTrace
	for i := 0; i < 4; i++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
		tr.CQGs = append(tr.CQGs, rep.CQGMembers)
		tr.Benefits = append(tr.Benefits, rep.EstimatedBenefit)
		tr.Evals = append(tr.Evals, rep.BenefitEvals)
		tr.Questions = append(tr.Questions, rep.Questions())
	}
	h, err := json.Marshal(s.History())
	if err != nil {
		t.Fatal(err)
	}
	tr.History = h
	if v, err := s.CurrentVis(); err == nil {
		tr.FinalVis = fmt.Sprintf("%+v", v)
	}
	return tr
}

func newIncSession(t testing.TB, selector SelectorKind, seed int64, workers int, noInc bool) (*Session, *oracle.Oracle) {
	t.Helper()
	s, user := newDetSession(t, selector, seed, workers)
	s.cfg.NoIncremental = noInc
	return s, user
}

// TestIncrementalFullSessionEquivalence runs whole sessions with the
// pricer on vs off — across GSS, GSS+ and B&B, two seeds, and worker
// counts 1 and 8 — and asserts byte-identical answer logs, CQG vertex
// sets, benefits and final charts.
func TestIncrementalFullSessionEquivalence(t *testing.T) {
	for _, sel := range []SelectorKind{SelectGSS, SelectGSSPlus, SelectBB} {
		for _, seed := range []int64{7, 13} {
			sel, seed := sel, seed
			t.Run(fmt.Sprintf("%s/seed%d", sel, seed), func(t *testing.T) {
				t.Parallel()
				full := runIncSession(t, sel, seed, 1, true)
				inc := runIncSession(t, sel, seed, 1, false)
				assertTracesEqual(t, fmt.Sprintf("%s seed %d incremental vs full", sel, seed), full, inc)
				incPar := runIncSession(t, sel, seed, 8, false)
				assertTracesEqual(t, fmt.Sprintf("%s seed %d incremental workers 8 vs full workers 1", sel, seed), full, incPar)
			})
		}
	}
}

// TestIncrementalSingleBaseline covers the Single baseline's sequential
// estimator, which wires the pricer through a separate code path.
func TestIncrementalSingleBaseline(t *testing.T) {
	full := runIncSession(t, SelectSingle, 7, 1, true)
	inc := runIncSession(t, SelectSingle, 7, 1, false)
	assertTracesEqual(t, "Single incremental vs full", full, inc)
}
