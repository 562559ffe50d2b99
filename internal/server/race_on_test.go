//go:build race

package server

// raceBuild: the race detector's instrumentation allocates on its own
// schedule, so the across-GC ceiling is not held under it.
const raceBuild = true
