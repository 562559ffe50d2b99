package stats

import (
	"math"
	"math/bits"
	"slices"
)

// floatKey maps f to a uint64 whose unsigned order is f's order: positives
// get their sign bit set, negatives every bit flipped. −0 takes +0's key, and
// NaN, which slices.Sort puts first, takes 0, below −Inf's key.
func floatKey(f float64) uint64 {
	if f != f {
		return 0
	}
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSmall is the run length up to which sortFloats hands a run to
// slices.Sort: below it, 256 buckets a level cost more than they save.
const radixSmall = 256

// sortFloats sorts s ascending in place, NaNs first, as slices.Sort does: an
// MSD (American flag) radix sort on floatKey, a byte a level from the highest
// in which two keys differ, that permutes s in place and needs no second
// buffer. Equal keys are equal
// values but for ±0, which share one and end in no particular order among
// themselves, as under a comparison sort.
func sortFloats(s []float64) { radixSortFloats(s, 56) }

// radixSortFloats sorts s, whose keys agree above bit shift+8.
func radixSortFloats(s []float64, shift uint) {
	if len(s) <= radixSmall {
		slices.Sort(s)
		return
	}
	var head, end [256]int // per key byte: the bucket's next unplaced slot, its end
	for {
		first := floatKey(s[0])
		var diff uint64 // the bits in which some key differs from the first
		for _, f := range s {
			k := floatKey(f)
			end[byte(k>>shift)]++
			diff |= k ^ first
		}
		if diff == 0 {
			return
		}
		if diff>>shift != 0 {
			break
		}
		// Every key shares this byte: count again at the highest one in
		// which two differ.
		shift = uint(bits.Len64(diff)-1) &^ 7
		end = [256]int{}
	}
	sum := 0
	for b, n := range end {
		head[b] = sum
		sum += n
		end[b] = sum
	}
	// Walk each bucket's unplaced slots; a value that belongs elsewhere is
	// swapped into its bucket's next slot until one that belongs here comes
	// back.
	for b := range head {
		for head[b] < end[b] {
			f := s[head[b]]
			for d := int(byte(floatKey(f) >> shift)); d != b; d = int(byte(floatKey(f) >> shift)) {
				f, s[head[d]] = s[head[d]], f
				head[d]++
			}
			s[head[b]] = f
			head[b]++
		}
	}
	if shift == 0 {
		return
	}
	start := 0
	for _, e := range end {
		if e-start > 1 {
			radixSortFloats(s[start:e], shift-8)
		}
		start = e
	}
}
