// The three benchmark workloads. Each fills a Report with its end-to-end
// metrics, its per-layer metrics (traced passes run only with --trace 1),
// per-phase failure tallies and the digests its correctness checks used.
#pragma once

#include "common.h"
#include "spans.h"

namespace perfbench {

Report run_batch_wild_mix(const RunOptions& options, SpanRecorder& spans);
Report run_daemon_open_loop(const RunOptions& options, SpanRecorder& spans);
Report run_snapshot_recrawl(const RunOptions& options, SpanRecorder& spans);

}  // namespace perfbench
