package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rqp/internal/types"
)

func TestHistogramEquiDepth(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	h := BuildHistogram(vals, 10)
	if len(h.Counts) != 10 {
		t.Fatalf("buckets = %d", len(h.Counts))
	}
	for i, c := range h.Counts {
		if c < 80 || c > 120 {
			t.Errorf("bucket %d count %v not equi-depth", i, c)
		}
	}
	if lo, hi := h.Bounds[0], h.Bounds[len(h.Bounds)-1]; lo != 0 || hi != 999 {
		t.Errorf("bounds wrong: %v %v", lo, hi)
	}
}

func TestHistogramInvariantsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%500 + 1
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = math.Floor(rng.Float64() * 100)
		}
		h := BuildHistogram(vals, 16)
		// total preserved
		sum := 0.0
		for _, c := range h.Counts {
			sum += c
		}
		if sum != float64(count) || h.Total != float64(count) {
			return false
		}
		// bounds monotone
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i] < h.Bounds[i-1] {
				return false
			}
		}
		// full-range selectivity ~1
		s := h.SelectivityRange(math.Inf(-1), math.Inf(1))
		return s > 0.99 && s <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectivityRangeAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	h := BuildHistogram(vals, 50)
	for trial := 0; trial < 50; trial++ {
		lo := rng.Float64() * 900
		hi := lo + rng.Float64()*100
		actual := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				actual++
			}
		}
		est := h.SelectivityRange(lo, hi)
		actualSel := float64(actual) / float64(len(vals))
		if math.Abs(est-actualSel) > 0.05 {
			t.Errorf("range [%v,%v]: est %v actual %v", lo, hi, est, actualSel)
		}
	}
	if h.SelectivityRange(2000, 3000) != 0 {
		t.Error("out-of-range selectivity should be 0")
	}
	if h.SelectivityRange(500, 400) != 0 {
		t.Error("inverted range should be 0")
	}
}

func TestSelectivityEqNeverZeroInDomain(t *testing.T) {
	vals := []types.Value{}
	for i := 0; i < 100; i++ {
		vals = append(vals, types.Int(int64(i%10)))
	}
	cs := columnStatsOf(types.KindInt, vals, 4)
	if cs.NDV != 10 {
		t.Fatalf("NDV = %v", cs.NDV)
	}
	sel := cs.SelectivityEq(types.Int(5))
	if sel < 0.05 || sel > 0.2 {
		t.Errorf("eq selectivity %v, want ~0.1", sel)
	}
	if cs.SelectivityEq(types.Null()) != 0 {
		t.Error("NULL equality should be 0")
	}
}

func TestColumnStatsWithNulls(t *testing.T) {
	vals := []types.Value{types.Int(1), types.Null(), types.Int(2), types.Null()}
	cs := columnStatsOf(types.KindInt, vals, 4)
	if cs.NullCount != 2 || cs.NonNullFraction() != 0.5 {
		t.Errorf("null accounting wrong: %v %v", cs.NullCount, cs.NonNullFraction())
	}
	if cs.NDV != 2 {
		t.Errorf("NDV = %v", cs.NDV)
	}
}

func TestStringStats(t *testing.T) {
	vals := []types.Value{}
	for i := 0; i < 90; i++ {
		vals = append(vals, types.Str("common"))
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, types.Str("rare"))
	}
	cs := columnStatsOf(types.KindString, vals, 4)
	if s := cs.SelectivityEq(types.Str("common")); math.Abs(s-0.9) > 0.01 {
		t.Errorf("common selectivity %v", s)
	}
	if s := cs.SelectivityEq(types.Str("rare")); math.Abs(s-0.1) > 0.01 {
		t.Errorf("rare selectivity %v", s)
	}
	// unseen string falls back to 1/NDV
	if s := cs.SelectivityEq(types.Str("unseen")); s != 0.5 {
		t.Errorf("unseen selectivity %v, want 1/NDV = 0.5", s)
	}
}

func TestCorrelatedConjunction(t *testing.T) {
	// Two perfectly correlated columns: b = a. 100 rows, 10 distinct values.
	ts := NewTableStats(2)
	ts.RowCount = 100
	vals := make([]types.Value, 100)
	for i := range vals {
		vals[i] = types.Int(int64(i % 10))
	}
	ts.Cols[0] = columnStatsOf(types.KindInt, vals, 8)
	ts.Cols[1] = columnStatsOf(types.KindInt, vals, 8)
	perCol := []float64{0.1, 0.1}
	// Without group stats: independence 0.01.
	if got := ts.CorrelatedConjunctionSelectivity([]int{0, 1}, perCol); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("independence sel %v, want 0.01", got)
	}
	// With joint NDV 10 (perfect correlation): should recover ~0.1.
	ts.SetGroupNDV([]int{0, 1}, 10)
	got := ts.CorrelatedConjunctionSelectivity([]int{0, 1}, perCol)
	if math.Abs(got-0.1) > 1e-9 {
		t.Errorf("correlated sel %v, want 0.1", got)
	}
}

func columnStatsOf(kind types.Kind, vals []types.Value, buckets int) *ColumnStats {
	vecs := types.NewVectors(make(types.Schema, 1), len(vals))
	for _, v := range vals {
		vecs[0].Append(v)
	}
	return new(colScratch).columnStats(kind, &vecs[0], buckets)
}

func TestAnalyzeGroup(t *testing.T) {
	ts := NewTableStats(2)
	vecs := types.NewVectors(make(types.Schema, 2), 50)
	for r := 0; r < 50; r++ {
		vecs[0].Append(types.Int(int64(r % 5)))
		vecs[1].Append(types.Int(int64(r % 5 * 2))) // perfectly correlated
	}
	ts.AnalyzeGroup([]int{0, 1}, vecs)
	ndv, ok := ts.GroupNDV([]int{1, 0}) // order-insensitive
	if !ok || ndv != 5 {
		t.Errorf("group NDV = %v %v, want 5", ndv, ok)
	}
}

func TestJoinSelectivity(t *testing.T) {
	l := &ColumnStats{NDV: 100}
	r := &ColumnStats{NDV: 1000}
	if s := JoinSelectivity(l, r); s != 0.001 {
		t.Errorf("join sel %v, want 0.001", s)
	}
	if s := JoinSelectivity(nil, nil); s != 0.01 {
		t.Errorf("default join sel %v", s)
	}
}

func TestMaxEntIndependenceReduction(t *testing.T) {
	// With only marginals, MaxEnt must reduce to independence.
	m := NewMaxEntCombiner(3)
	m.AddMarginal(0, 0.5)
	m.AddMarginal(1, 0.2)
	m.AddMarginal(2, 0.1)
	got := m.Selectivity(nil)
	want := 0.5 * 0.2 * 0.1
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("maxent = %v, want independence %v", got, want)
	}
	// Pairwise query
	got2 := m.Selectivity([]int{0, 1})
	if math.Abs(got2-0.1) > 1e-3 {
		t.Errorf("pairwise maxent = %v, want 0.1", got2)
	}
}

func TestMaxEntHonorsJointConstraint(t *testing.T) {
	// Marginals 0.5, 0.5 but joint known to be 0.5 (fully correlated).
	m := NewMaxEntCombiner(3)
	m.AddMarginal(0, 0.5)
	m.AddMarginal(1, 0.5)
	m.AddMarginal(2, 0.3)
	m.AddJoint([]int{0, 1}, 0.5)
	got := m.Selectivity([]int{0, 1})
	if math.Abs(got-0.5) > 1e-3 {
		t.Errorf("joint constraint not honored: %v", got)
	}
	// Full conjunction should be ~0.5 * 0.3 (predicate 2 independent)
	full := m.Selectivity(nil)
	if math.Abs(full-0.15) > 5e-3 {
		t.Errorf("full conjunction %v, want ~0.15", full)
	}
}

// Mean returns the expected selectivity.
func (d SelectivityDistribution) Mean() float64 {
	return d.Alpha / (d.Alpha + d.Beta)
}

// Variance returns the posterior variance.
func (d SelectivityDistribution) Variance() float64 {
	ab := d.Alpha + d.Beta
	return d.Alpha * d.Beta / (ab * ab * (ab + 1))
}

func TestSelectivityDistribution(t *testing.T) {
	d := SelectivityDistribution{Alpha: 10 + 1, Beta: 90 + 1} // 10 matches in a sample of 100
	if m := d.Mean(); math.Abs(m-11.0/102) > 1e-9 {
		t.Errorf("mean %v", m)
	}
	p50 := d.Percentile(0.5)
	p95 := d.Percentile(0.95)
	if !(p50 < p95) {
		t.Errorf("quantiles not monotone: %v %v", p50, p95)
	}
	if p50 < 0.05 || p50 > 0.2 {
		t.Errorf("median %v implausible for 10/100", p50)
	}
	// The 95th percentile is the conservative (robust) estimate: higher.
	if p95 < d.Mean() {
		t.Error("p95 should exceed mean for this posterior")
	}
	if d.Percentile(0) != 0 || d.Percentile(1) != 1 {
		t.Error("extreme percentiles wrong")
	}
	if d.Variance() <= 0 {
		t.Error("variance should be positive")
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform)
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-9 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
	if got := RegIncBeta(3, 5, 0.3) + RegIncBeta(5, 3, 0.7); math.Abs(got-1) > 1e-9 {
		t.Errorf("symmetry violated: %v", got)
	}
	if RegIncBeta(2, 2, 0) != 0 || RegIncBeta(2, 2, 1) != 1 {
		t.Error("boundaries wrong")
	}
}

func TestQError(t *testing.T) {
	if QError(100, 100) != 1 {
		t.Error("exact estimate should have q-error 1")
	}
	if QError(10, 1000) != 100 {
		t.Error("under by 100x should have q-error 100")
	}
	if QError(1000, 10) != 100 {
		t.Error("over by 100x should have q-error 100")
	}
	if QError(0, 0) != 1 {
		t.Error("floored q-error wrong")
	}
}

func TestFromEstimate(t *testing.T) {
	d := FromEstimate(0.3, 100)
	if math.Abs(d.Mean()-0.3) > 0.01 {
		t.Errorf("FromEstimate mean %v", d.Mean())
	}
	tight := FromEstimate(0.3, 1000)
	loose := FromEstimate(0.3, 10)
	if tight.Variance() >= loose.Variance() {
		t.Error("more evidence should mean tighter posterior")
	}
}
