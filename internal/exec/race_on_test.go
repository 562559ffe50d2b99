//go:build race

package exec

// raceDetector reports whether the tests run under the race detector, whose
// sync.Pool drops a share of its puts: pooled scratch is then reallocated,
// and byte ceilings that count on a warm pool do not hold.
const raceDetector = true
