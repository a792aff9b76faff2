// The traced run's layer pass: the benchmark re-composes the analysis
// pipeline from each layer's public entry point, with a span around every
// call, and checks the composed result against analyze_outcome.
#pragma once

#include <span>

#include "analysis/pipeline.h"
#include "common.h"
#include "corpus.h"
#include "spans.h"

namespace perfbench {

// One traced pass over `scripts` on the calling thread. Per script it
// times analyze_outcome (pooled ScriptScratch) in an "analysis" span and
// the six layers in a "layers" span: lexer (Lexer::next as parse_program
// drives it), parser (Parser::parse_program_body on the pre-lexed
// tokens), cfg (build_control_flow), dataflow (build_data_flow),
// features (features::extract_into) and ml (Level1Detector::predict +
// Level2Detector::predict_proba/predict_techniques, scratch overloads).
// The two executions alternate order per script; their difference is
// reported as trace.overhead_share, and the part of the analysis time
// the six layers' self times do not cover as pipeline.unaccounted_share.
// Then the wire codecs and content_hash are timed per script. Fills the
// layer, pipeline, scratch, wire and cache.content_hash metrics of
// report.per_layer and the "trace" phase tally.
void trace_layers(const jst::analysis::TransformationAnalyzer& analyzer,
                  std::span<const Script> scripts, SpanRecorder& spans,
                  Report& report);

// Sets every per-layer metric that only some workloads produce to 0, so
// each workload prints the full per-layer set; 0 means "this layer is not
// on this workload's path" (documented in README.md).
void zero_fill_per_layer(Report& report);

}  // namespace perfbench
