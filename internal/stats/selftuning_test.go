package stats

import (
	"math"
	"math/rand"
	"testing"
)

// skewedData returns values concentrated in [800, 1000) with a thin uniform
// tail — a distribution a uniform-start histogram estimates terribly.
func skewedData(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < 0.8 {
			out[i] = 800 + rng.Float64()*200
		} else {
			out[i] = rng.Float64() * 1000
		}
	}
	return out
}

func actualCount(data []float64, lo, hi float64) float64 {
	n := 0.0
	for _, v := range data {
		if v >= lo && v <= hi {
			n++
		}
	}
	return n
}

func TestSelfTuningConvergesOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := skewedData(10000, rng)
	h := NewSelfTuning(0, 1000, float64(len(data)), 20)

	queryErr := func() float64 {
		// evaluation range set: fixed probe ranges
		total := 0.0
		for lo := 0.0; lo < 1000; lo += 100 {
			est := h.EstimateRange(lo, lo+100)
			act := actualCount(data, lo, lo+100)
			total += math.Abs(est-act) / math.Max(act, 1)
		}
		return total
	}

	before := queryErr()
	// Train with 400 random range queries (the "free" execution feedback).
	for q := 0; q < 400; q++ {
		lo := rng.Float64() * 900
		hi := lo + rng.Float64()*150
		h.Observe(lo, hi, actualCount(data, lo, hi))
	}
	after := queryErr()
	if after >= before/2 {
		t.Errorf("feedback should at least halve the error: before=%.2f after=%.2f", before, after)
	}
	// Total mass should track the real total reasonably.
	tr := 0.0
	for _, f := range h.freqs {
		tr += f
	}
	if tr < 5000 || tr > 20000 {
		t.Errorf("total rows drifted: %v", tr)
	}
}

func TestSelfTuningBucketBudgetHeld(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := skewedData(5000, rng)
	h := NewSelfTuning(0, 1000, 5000, 16)
	for q := 0; q < 500; q++ {
		lo := rng.Float64() * 900
		hi := lo + rng.Float64()*100
		h.Observe(lo, hi, actualCount(data, lo, hi))
	}
	if n := len(h.freqs); n < 14 || n > 18 {
		t.Errorf("bucket budget not held: %d", n)
	}
	b := h.bounds
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatal("bounds not monotone")
		}
	}
}

func TestSelfTuningExactFeedbackIsExactOnSameRange(t *testing.T) {
	h := NewSelfTuning(0, 100, 1000, 10)
	// Repeated feedback for the same aligned range converges the estimate.
	for i := 0; i < 30; i++ {
		h.Observe(0, 50, 900)
	}
	est := h.EstimateRange(0, 50)
	if math.Abs(est-900) > 50 {
		t.Errorf("repeated feedback should converge: est=%v want~900", est)
	}
}

func TestSelfTuningDegenerate(t *testing.T) {
	h := NewSelfTuning(5, 5, 100, 4) // hi <= lo handled
	if h.EstimateRange(10, 0) != 0 {
		t.Error("inverted range should be 0")
	}
	h.Observe(0, 10, 0) // zero-actual feedback must not produce negatives
	if h.EstimateRange(0, 10) < 0 {
		t.Error("negative estimate")
	}
}
