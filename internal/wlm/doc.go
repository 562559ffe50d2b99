// Package wlm implements workload management — the layer that keeps a mix
// of queries feasible so each query's own robustness machinery only has to
// keep it correct.
//
// It provides:
//
//   - live admission control (Admitter): a multiprogramming-limit gate the
//     engine consults per query, whose one waiting entry point (Admit)
//     queues arrivals FIFO and hands each freed slot to the oldest, with
//     degree-of-parallelism scaling (GrantDOP) that degrades fan-out as
//     the mix thickens;
//   - workspace-memory arbitration (SetMemPool/AttachMem/DetachMem): running
//     queries share a fixed pool in equal parts, and every arrival reclaims
//     memory from the queries already running — their exec.MemBroker budgets
//     shrink (through the dependency-free MemReclaimable interface) and
//     their operators spill at the next grant re-negotiation instead of
//     failing;
//   - a deterministic processor-sharing simulator for
//     degree-of-parallelism interference (the FPT robustness test);
//   - memory-budget fluctuation schedules (ConstantMemory,
//     DecliningMemory, OscillatingMemory) used both by the FMT robustness
//     test and as mid-query pressure injectors via
//     exec.MemBroker.SetSchedule.
package wlm
