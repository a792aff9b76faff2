// Resource governance for analyzing hostile wild-study traffic.
//
// The paper's §IV measurement runs the static pipeline over hundreds of
// thousands of uncontrolled scripts; real obfuscated corpora defeat naive
// analyzers through resource exhaustion (deeply nested ASTs, megabyte
// string literals, JSFuck-style token floods), not through correctness
// bugs. ResourceLimits declares per-script ceilings, and a Budget carries
// them through one script's analysis as a cooperative cancellation object:
// the lexer, parser, CFG builder, and data-flow pass charge it at safe
// points, and a tripped ceiling surfaces as a structured BudgetExceeded
// (hard stages) or as a recorded BudgetTrip the pipeline degrades around
// (soft stages) — see DESIGN.md §10 for the full degradation ladder.
//
// Accounting is deterministic: counters advance per token / AST node /
// data-flow edge in program order, so every count-based ceiling trips at
// the same place for any thread count. Only the wall-clock deadline is
// time-dependent; it is polled sparsely (every kDeadlinePollStride
// charges, and at stage checkpoints) to keep the guard overhead in the
// noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/clock.h"

namespace jst {

// Which ceiling a trip refers to.
enum class ResourceKind : std::uint8_t {
  kSourceBytes,    // raw script size, checked before the lexer runs
  kTokens,         // lexed tokens
  kAstNodes,       // AST arena allocations during parsing
  kAstDepth,       // parser nesting depth (≈ AST depth)
  kDataflowEdges,  // def -> use edges emitted by the data-flow pass
  kDeadline,       // per-script wall-clock time
};

std::string_view to_string(ResourceKind kind);

// Per-script ceilings. 0 disables a count ceiling; 0.0 disables the
// deadline. A default-constructed ResourceLimits therefore governs
// nothing and the pipeline behaves exactly as if no budget existed.
struct ResourceLimits {
  std::size_t max_source_bytes = 0;
  std::size_t max_tokens = 0;
  std::size_t max_ast_nodes = 0;
  std::size_t max_ast_depth = 0;
  std::size_t max_dataflow_edges = 0;
  double deadline_ms = 0.0;

  bool any_enabled() const {
    return max_source_bytes > 0 || max_tokens > 0 || max_ast_nodes > 0 ||
           max_ast_depth > 0 || max_dataflow_edges > 0 || deadline_ms > 0.0;
  }

  // Defaults sized for wild-study traffic (DESIGN.md §10): generous enough
  // that the seed corpus never trips, tight enough that a pathological
  // script cannot stall a worker. The depth ceiling sits below the
  // parser's hard recursion guard (700) so it trips first, and the
  // deadline mirrors the paper's two-minute data-flow timeout.
  static ResourceLimits production() {
    ResourceLimits limits;
    limits.max_source_bytes = 4 * 1024 * 1024;
    limits.max_tokens = 2'000'000;
    limits.max_ast_nodes = 1'000'000;
    limits.max_ast_depth = 512;
    limits.max_dataflow_edges = 4'000'000;
    limits.deadline_ms = 120'000.0;
    return limits;
  }
};

// One tripped ceiling: which resource, the configured limit, the value
// observed at the trip, and the pipeline stage that noticed it.
struct BudgetTrip {
  ResourceKind kind = ResourceKind::kDeadline;
  double limit = 0.0;
  double observed = 0.0;
  std::string stage;  // "lex" | "parse" | "cfg" | "dataflow" | checkpoint name

  // e.g. "token budget exceeded in lex (2000001 > 2000000)".
  std::string to_string() const;
};

// Thrown from hard pipeline stages (lex/parse/CFG) when a ceiling trips.
class BudgetExceeded : public std::runtime_error {
 public:
  explicit BudgetExceeded(BudgetTrip trip);
  const BudgetTrip& trip() const noexcept { return trip_; }

 private:
  BudgetTrip trip_;
};

// Cooperative per-script budget. Non-copyable; one instance lives for the
// duration of one script's analysis and is passed down by raw pointer
// (nullptr everywhere means "ungoverned", costing a branch per charge).
class Budget {
 public:
  // Deadline polls happen every this many charges of any one counter.
  // Charges below the stride never read the clock mid-stage — small
  // scripts only meet the deadline at stage checkpoints, which keeps the
  // trip point deterministic for them (DESIGN.md §10).
  static constexpr std::size_t kDeadlinePollStride = 4096;

  Budget() = default;  // all ceilings disabled
  explicit Budget(const ResourceLimits& limits)
      : limits_(limits),
        has_deadline_(limits.deadline_ms > 0.0),
        start_(support::Clock::now()) {}

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  const ResourceLimits& limits() const noexcept { return limits_; }

  // Stage label recorded into trips; updated at stage boundaries.
  void set_stage(std::string_view stage) { stage_ = stage; }
  std::string_view stage() const noexcept { return stage_; }

  // --- hard checkpoints: throw BudgetExceeded on a tripped ceiling ---

  void charge_tokens(std::size_t n = 1) {
    tokens_ += n;
    if (limits_.max_tokens > 0 && tokens_ > limits_.max_tokens) {
      trip(ResourceKind::kTokens, limits_.max_tokens, tokens_);
    }
    if (has_deadline_ && tokens_ % kDeadlinePollStride == 0) check_deadline();
  }

  void charge_ast_nodes(std::size_t n = 1) {
    ast_nodes_ += n;
    if (limits_.max_ast_nodes > 0 && ast_nodes_ > limits_.max_ast_nodes) {
      trip(ResourceKind::kAstNodes, limits_.max_ast_nodes, ast_nodes_);
    }
    if (has_deadline_ && ast_nodes_ % kDeadlinePollStride == 0) {
      check_deadline();
    }
  }

  void check_depth(std::size_t depth) {
    if (limits_.max_ast_depth > 0 && depth > limits_.max_ast_depth) {
      trip(ResourceKind::kAstDepth, limits_.max_ast_depth, depth);
    }
  }

  // Sparse deadline poll for hard stages without their own counter (CFG):
  // reads the clock every kDeadlinePollStride calls.
  void poll_deadline() {
    if (has_deadline_ && ++polls_ % kDeadlinePollStride == 0) {
      check_deadline();
    }
  }

  // Unconditional clock read; throws when the deadline has passed.
  void check_deadline() {
    if (!has_deadline_) return;
    const double elapsed = elapsed_ms();
    if (elapsed > limits_.deadline_ms) {
      trip(ResourceKind::kDeadline, limits_.deadline_ms, elapsed);
    }
  }

  // --- soft checkpoints: report instead of throwing (caller degrades) ---

  // Returns false once the edge ceiling is exceeded; the data-flow pass
  // stops emitting edges and records the trip via make_trip().
  bool try_charge_dataflow_edges(std::size_t n = 1) {
    dataflow_edges_ += n;
    return limits_.max_dataflow_edges == 0 ||
           dataflow_edges_ <= limits_.max_dataflow_edges;
  }

  // Non-throwing deadline probe for soft stages and stage checkpoints.
  bool deadline_expired() const {
    return has_deadline_ && elapsed_ms() > limits_.deadline_ms;
  }

  // Builds the trip record for a soft trip noticed by the caller.
  BudgetTrip make_trip(ResourceKind kind) const;

  // --- accounting snapshot ---

  double elapsed_ms() const { return support::ms_since(start_); }
  std::size_t tokens_charged() const noexcept { return tokens_; }
  std::size_t ast_nodes_charged() const noexcept { return ast_nodes_; }
  std::size_t dataflow_edges_charged() const noexcept {
    return dataflow_edges_;
  }

 private:
  [[noreturn]] void trip(ResourceKind kind, double limit, double observed);

  ResourceLimits limits_;
  bool has_deadline_ = false;
  support::Clock::time_point start_{};
  std::size_t tokens_ = 0;
  std::size_t ast_nodes_ = 0;
  std::size_t dataflow_edges_ = 0;
  std::size_t polls_ = 0;
  std::string stage_;
};

}  // namespace jst
