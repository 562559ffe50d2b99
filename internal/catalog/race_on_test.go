//go:build race

package catalog_test

// raceBuild: the race detector's instrumentation moves what ANALYZE
// allocates (orders at scale 8: 691 104 B under it, 592 800 B without, before
// its statistics kept their sort buffers; 494 516 B and 494 512 B since).
const raceBuild = true
