package stats

import "math"

// SelectivityDistribution models the uncertainty of a selectivity estimate
// derived from a sample: observing k matching rows in a sample of n gives a
// Beta(k+1, n-k+1) posterior over the true selectivity (uniform prior).
// This is the machinery behind Babcock & Chaudhuri's "towards a robust
// query optimizer": instead of planning with the expected selectivity, the
// optimizer can plan with a conservative percentile of this distribution.
type SelectivityDistribution struct {
	Alpha, Beta float64
}

// FromEstimate builds a distribution centered on a point estimate with an
// effective evidence weight (pseudo-sample size); larger weight = tighter.
func FromEstimate(sel float64, weight float64) SelectivityDistribution {
	sel = clamp01(sel)
	if weight < 2 {
		weight = 2
	}
	return SelectivityDistribution{Alpha: sel*weight + 1e-9, Beta: (1-sel)*weight + 1e-9}
}

// Percentile returns the p-quantile (0<p<1) of the Beta posterior via
// bisection on the regularized incomplete beta function.
func (d SelectivityDistribution) Percentile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if RegIncBeta(d.Alpha, d.Beta, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style).
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		tiny    = 1e-30
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// QError returns max(est/actual, actual/est) with both floored at `floor`
// rows — the multiplicative error metric of Moerkotte, Neumann & Steidl
// ("preventing bad plans by bounding the impact of cardinality estimation
// errors").
func QError(estimated, actual float64) float64 {
	const floor = 1.0
	e := math.Max(estimated, floor)
	a := math.Max(actual, floor)
	if e > a {
		return e / a
	}
	return a / e
}
