//go:build race

package exec

// raceBuild: the race detector's instrumentation switches off compiler
// optimisations the allocation ceilings rely on (append(s, make([]T, n)...)
// extends in place only without it).
const raceBuild = true
