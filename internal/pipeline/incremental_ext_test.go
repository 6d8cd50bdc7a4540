package pipeline_test

import (
	"fmt"
	"testing"

	"visclean/internal/datagen"
	"visclean/internal/experiments"
	"visclean/internal/oracle"
	"visclean/internal/pipeline"
	"visclean/internal/vql"
)

// TestIncrementalPricingBitIdenticalMultiView runs the delta-pricer
// equivalence check on the 3-view dashboard of the multi-view
// experiment: one pricer delta feeds two GROUP views with LIMIT and a
// BIN view without one, over a projected column set wider than any
// single view's.
func TestIncrementalPricingBitIdenticalMultiView(t *testing.T) {
	views := experiments.MultiViewViews()
	for _, seed := range []int64{7, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			d := datagen.D1(datagen.Config{Scale: 0.004, Seed: seed})
			var extra []*vql.Query
			for _, src := range views[1:] {
				extra = append(extra, vql.MustParse(src))
			}
			s, err := pipeline.NewSession(d.Dirty, vql.MustParse(views[0]), d.KeyColumns, pipeline.Config{
				Selector: pipeline.SelectGSS,
				Seed:     seed,
				Workers:  1,
				Queries:  extra,
			})
			if err != nil {
				t.Fatal(err)
			}
			pipeline.AssertPricingBitIdentical(t, s, oracle.New(d.Truth, seed), 10)
		})
	}
}
