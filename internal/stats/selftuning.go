package stats

import (
	"math"
	"sync"
)

// SelfTuningHistogram implements Aboulnaga & Chaudhuri's feedback-built
// histogram: it starts uniform over [lo, hi] without ever scanning the
// data, then refines itself from the (range, actual rows) observations
// that query execution produces for free. Refinement has two parts:
//
//   - frequency feedback: the estimation error of an observed range is
//     distributed over the buckets it overlaps, proportionally to their
//     current frequencies;
//   - restructuring: periodically, high-frequency buckets are split and
//     adjacent low-frequency buckets merged, holding the bucket budget.
type SelfTuningHistogram struct {
	mu      sync.Mutex
	bounds  []float64 // len = buckets+1
	freqs   []float64 // estimated rows per bucket
	budget  int
	obs     int
	restruc int // observations between restructurings
	damp    float64
}

// NewSelfTuning creates a uniform histogram over [lo, hi] that assumes
// totalRows rows.
func NewSelfTuning(lo, hi float64, totalRows float64, buckets int) *SelfTuningHistogram {
	if buckets < 2 {
		buckets = 2
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := &SelfTuningHistogram{budget: buckets, restruc: 50, damp: 0.5}
	for i := 0; i <= buckets; i++ {
		h.bounds = append(h.bounds, lo+(hi-lo)*float64(i)/float64(buckets))
	}
	for i := 0; i < buckets; i++ {
		h.freqs = append(h.freqs, totalRows/float64(buckets))
	}
	return h
}

// EstimateRange returns the estimated row count in [lo, hi].
func (h *SelfTuningHistogram) EstimateRange(lo, hi float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.estimateLocked(lo, hi)
}

func (h *SelfTuningHistogram) estimateLocked(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	total := 0.0
	for i := range h.freqs {
		total += h.freqs[i] * h.overlap(i, lo, hi)
	}
	return total
}

// overlap returns the fraction of bucket i inside [lo, hi].
func (h *SelfTuningHistogram) overlap(i int, lo, hi float64) float64 {
	bLo, bHi := h.bounds[i], h.bounds[i+1]
	w := bHi - bLo
	if w <= 0 {
		if lo <= bLo && bLo <= hi {
			return 1
		}
		return 0
	}
	oLo, oHi := math.Max(bLo, lo), math.Min(bHi, hi)
	if oHi <= oLo {
		return 0
	}
	return (oHi - oLo) / w
}

// Observe feeds back one executed range query's actual row count.
func (h *SelfTuningHistogram) Observe(lo, hi float64, actual float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	est := h.estimateLocked(lo, hi)
	err := actual - est
	if math.Abs(err) > 1e-12 {
		// Distribute the error over overlapping buckets proportionally to
		// their current contribution (uniformly if nothing contributes yet).
		weights := make([]float64, len(h.freqs))
		sum := 0.0
		for i := range h.freqs {
			weights[i] = h.freqs[i] * h.overlap(i, lo, hi)
			sum += weights[i]
		}
		if sum <= 1e-12 {
			for i := range weights {
				weights[i] = h.overlap(i, lo, hi)
				sum += weights[i]
			}
		}
		if sum > 0 {
			for i := range h.freqs {
				h.freqs[i] += h.damp * err * weights[i] / sum
				if h.freqs[i] < 0 {
					h.freqs[i] = 0
				}
			}
		}
	}
	h.obs++
	if h.obs%h.restruc == 0 {
		h.restructure()
	}
}

// restructure splits the highest-frequency buckets and merges the pair of
// adjacent buckets with the lowest combined frequency, keeping the budget.
func (h *SelfTuningHistogram) restructure() {
	n := len(h.freqs)
	if n < 3 {
		return
	}
	// Find the bucket with max frequency and the adjacent min-sum pair.
	maxI := 0
	for i := range h.freqs {
		if h.freqs[i] > h.freqs[maxI] {
			maxI = i
		}
	}
	minPair, minSum := -1, math.Inf(1)
	for i := 0; i+1 < n; i++ {
		if i == maxI || i+1 == maxI {
			continue
		}
		if s := h.freqs[i] + h.freqs[i+1]; s < minSum {
			minSum = s
			minPair = i
		}
	}
	if minPair < 0 || h.freqs[maxI] <= 2*minSum {
		return // not worth restructuring
	}
	// Merge minPair, minPair+1.
	h.freqs[minPair] += h.freqs[minPair+1]
	h.freqs = append(h.freqs[:minPair+1], h.freqs[minPair+2:]...)
	h.bounds = append(h.bounds[:minPair+1], h.bounds[minPair+2:]...)
	if maxI > minPair {
		maxI--
	}
	// Split maxI in half.
	mid := (h.bounds[maxI] + h.bounds[maxI+1]) / 2
	h.bounds = append(h.bounds, 0)
	copy(h.bounds[maxI+2:], h.bounds[maxI+1:])
	h.bounds[maxI+1] = mid
	h.freqs = append(h.freqs, 0)
	copy(h.freqs[maxI+1:], h.freqs[maxI:])
	h.freqs[maxI] /= 2
	h.freqs[maxI+1] = h.freqs[maxI]
}
