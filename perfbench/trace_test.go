package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children: together they cover [10, 40].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		// A disjoint child that sticks out of its parent: only [90, 100]
		// counts against root.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild nested inside a: charged to a, not to root.
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
		// A child nested inside another child of the same parent adds
		// nothing to the union.
		{ID: 6, Parent: 1, Name: "e", Start: 25, End: 28},
		// An unfinished span has no duration and covers nothing.
		{ID: 7, Parent: 1, Name: "open", Start: 50, End: -1},
	}
	want := map[int]int64{1: 100 - 30 - 10, 2: 20 - 6, 3: 20, 4: 30, 5: 6, 6: 3, 7: 0}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestCoveredMergesUnion(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {3, 6}, {8, 9}}, 5},
		{0, 10, [][2]int64{{-5, 2}, {9, 15}}, 3},
		{0, 10, [][2]int64{{0, 10}, {1, 2}}, 10},
		{0, 10, [][2]int64{{4, 6}, {4, 6}}, 2},
		{0, 10, [][2]int64{{11, 12}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	off.end(0)
	off.record("x", 0, 0, time.Now(), time.Now())

	tr := newTracer()
	iter := tr.newIter()
	root := tr.begin("root", 0, iter)
	child := tr.begin("child", root, iter)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Iter != iter {
		t.Fatalf("spans = %+v", tr.spans)
	}
	sum := summarizeSpans(tr.spans)
	if len(sum) != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	for _, lt := range sum {
		if lt.Count != 1 || lt.SelfTotalMs < 0 || lt.SelfTotalMs > lt.TotalMs {
			t.Errorf("summary entry %+v", lt)
		}
	}
}
