// Pipelined-ingest figure (beyond the paper): per-timestamp wall cost of
// the monitoring server vs ingest pipeline depth x worker-shard count, for
// the two incremental algorithms. Depth 1 is the synchronous tick; depth 2
// double-buffers, so workload generation plus the validating fold of
// tick t+1 overlap the shard maintenance of tick t (docs/pipeline.md).
// Results are identical at every (depth, shards) point — the curve
// isolates the ingest overlap. The cpu_sec_per_ts counter reports the
// process-CPU side by side, so the wall win is attributable: on a
// single-core host there is nothing to overlap with and the figure
// degenerates to the pipelining overhead (see docs/sharding.md for the
// same caveat on the sharding figure).

#include "bench/bench_common.h"

namespace cknn::bench {
namespace {

void FigPipeline(benchmark::State& state) {
  ExperimentSpec spec = DefaultSpec();
  spec.shards = static_cast<int>(state.range(1));
  spec.pipeline_depth = static_cast<int>(state.range(2));
  RunAndReport(state, AlgoOf(state.range(0)), spec);
}

BENCHMARK(FigPipeline)
    ->ArgNames({"algo", "shards", "depth"})
    ->ArgsProduct({{1, 2}, {1, 2, 8}, {1, 2}})
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cknn::bench
