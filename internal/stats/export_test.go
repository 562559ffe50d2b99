package stats

// SortFloats and ParallelFloor are what the external tests hold to a
// reference: the radix sort against sort.Float64s, and ANALYZE on both sides
// of the row count from which it uses its helper.
var SortFloats = sortFloats

const ParallelFloor = parallelFloor
