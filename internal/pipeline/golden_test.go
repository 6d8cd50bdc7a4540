package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"
)

// singleViewDigest runs a fresh single-view session for four iterations
// (or until exhausted) at Workers 1 and hashes everything it observably
// produced: the History JSON, then per report the Float64bits of
// EstimatedBenefit, DistMoved and DistToTruth and every ViewCharts
// point (label, x, has-x, y).
func singleViewDigest(t *testing.T, sel SelectorKind, seed int64) string {
	t.Helper()
	s, user := newDetSession(t, sel, seed, 1)
	h := sha256.New()
	var reps []Report
	for i := 0; i < 4; i++ {
		rep, err := s.RunIteration(user)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Exhausted {
			break
		}
		reps = append(reps, rep)
	}
	if len(reps) == 0 {
		t.Fatalf("%s seed %d: no iteration ran; the digest would pin nothing", sel, seed)
	}
	hist, err := json.Marshal(s.History())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(hist)
	for _, rep := range reps {
		writeBits(h, rep.EstimatedBenefit, rep.DistMoved, rep.DistToTruth)
		for _, d := range rep.ViewCharts {
			for _, p := range d.Points {
				h.Write([]byte(p.Label))
				h.Write([]byte{0})
				hasX := 0.0
				if p.HasX {
					hasX = 1
				}
				writeBits(h, p.X, hasX, p.Y)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeBits(h hash.Hash, fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

// TestSingleViewGolden pins single-view sessions across commits:
// testdata/singleview_golden.json holds the digests of GSS, GSS+, B&B
// and Single sessions at seeds 7 and 11, captured before the single-view
// pricing path was folded into the N-view one. The in-tree determinism
// suites compare two runs of the same code, so only a digest recorded
// from an earlier build can catch a change to N = 1 behaviour.
func TestSingleViewGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/singleview_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, sel := range []SelectorKind{SelectGSS, SelectGSSPlus, SelectBB, SelectSingle} {
		for _, seed := range []int64{7, 11} {
			key := fmt.Sprintf("%s/seed%d", sel, seed)
			sel, seed := sel, seed
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				want, ok := golden[key]
				if !ok {
					t.Fatalf("no golden digest for %s", key)
				}
				if got := singleViewDigest(t, sel, seed); got != want {
					t.Errorf("%s: digest %s, want %s (single-view session behaviour changed)", key, got, want)
				}
			})
		}
	}
}
