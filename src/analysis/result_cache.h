// Content-addressed cache of analysis outcomes (DESIGN.md §15).
//
// The paper's §IV crawl deduplicates scripts by content hash — well over
// half of the scripts observed across monthly snapshots repeat byte-for-
// byte — so re-running the pipeline on repeat traffic is pure waste. A
// ResultCache keys finished ScriptOutcomes by (content_hash, model
// fingerprint, limits fingerprint, wire version): any input that changes
// what the pipeline would produce changes the key, so a lookup hit is
// bit-identical to recomputation by construction.
//
// Two tiers share one key space:
//   - an in-memory, byte-budgeted LRU of outcomes held in a fixed-size
//     inline form (support::LruTable, the table the daemon's source
//     registry also uses, DESIGN.md §13), serving hot keys without
//     touching the disk or the parser;
//   - an append-only NDJSON record file (<dir>/results.ndjson) fronted
//     by a flat offset index, so a restart — or an entry evicted from the
//     memory tier — still resolves without re-analysis.
// The record file opens with a versioned header checked model_io-style
// (magic, format version, wire version); a mismatch discards the file
// rather than risking stale-schema outcomes. Loading is crash-tolerant:
// the first corrupt record truncates the file back to the last good
// byte, which is exactly the state an interrupted append leaves behind.
//
// Both tiers are indexed by a fixed 16-byte CacheKey; a text key (the
// make_key spelling, which the record file stores) is another spelling of
// the same key through cache_key_of. The mutex covers only finding,
// linking and unlinking entries: a hit copies its fixed-size entry under
// the lock and builds the ScriptOutcome after unlocking, and record lines
// are encoded and disk records parsed outside the lock.
//
// Staleness policy lives in the caller (AnalyzerService): only settled
// outcomes — never degraded or budget/deadline-tripped ones — are
// stored, and CacheMode::kRefresh overwrites via a fresh append (last
// record wins on reload).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/pipeline.h"
#include "support/budget.h"
#include "support/json_reader.h"
#include "support/lru_table.h"

namespace jst::analysis {

// FNV-1a 64 of the six ResourceLimits ceilings in declaration order, as
// 16 lowercase hex digits. Part of the cache key: the same source under
// different governance can legitimately produce different outcomes
// (ineligible_size vs ok, budget trips), so limits isolate entries.
std::string limits_fingerprint(const ResourceLimits& limits);

// The cache's fixed 16-byte key: the FNV-1a 64 digest of the source and
// one 64-bit word standing for everything else an outcome depends on
// (model fingerprint, limits fingerprint, wire version).
struct CacheKey {
  std::uint64_t content = 0;
  std::uint64_t context = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    // Both words are already FNV-1a digests; one multiply mixes them.
    return static_cast<std::size_t>(key.content ^
                                    (key.context * 0x9e3779b97f4a7c15ULL));
  }
};

// The one derivation from a text key to a CacheKey, used by the text API
// and the record loader alike. "<16 lowercase hex>|rest" (make_key's
// form) maps to {that hex value, FNV-1a of rest}; any other string maps
// to {FNV-1a of the whole string, a fixed tag}. So the key a service
// builds from a source digest and fnv1a(key_context(...)) equals
// cache_key_of(make_key(...)) for the same triple.
CacheKey cache_key_of(std::string_view text_key);

// Reconstructs a ScriptOutcome from its wire::write_script_outcome JSON
// (kFull detail). Returns std::nullopt on unknown status/technique names
// or structural damage. Round-trip invariant, relied on for the cache's
// bit-identity guarantee and checked by test_cache:
//   script_outcome_json(*parse_script_outcome(d)) == to_json(d) bytes.
std::optional<ScriptOutcome> parse_script_outcome(
    const support::JsonValue& value);

class ResultCache {
 public:
  struct Config {
    // Directory for the persistent tier; empty = memory-only cache.
    std::string dir;
    // Byte budget of the in-memory LRU tier (keys + parsed outcomes).
    std::size_t max_bytes = std::size_t{64} << 20;
  };

  // Monotonic counters mirrored into the jst_cache_* metric family.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bypasses = 0;
    std::size_t entries = 0;       // memory-tier entries
    std::size_t bytes = 0;         // memory-tier footprint
    std::size_t disk_records = 0;  // live keys in the record file
  };

  // Opens (or creates) the record file when config.dir is set; never
  // throws on I/O or format trouble — the cache degrades to memory-only
  // and load_error() carries the diagnostic.
  explicit ResultCache(Config config);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Builds the composite key for one (source, model, limits) triple.
  // `content_hash` and `model_fingerprint` are 16-hex tokens
  // (analysis::content_hash / AnalyzerService::model_fingerprint); the
  // wire format version is folded in here so a schema bump invalidates
  // every old entry at once.
  static std::string make_key(std::string_view content_hash,
                              std::string_view model_fingerprint,
                              const ResourceLimits& limits);

  // make_key's text after the content hash and its '|': what the context
  // word of a CacheKey is the FNV-1a digest of.
  static std::string key_context(std::string_view model_fingerprint,
                                 const ResourceLimits& limits);

  // Memory tier first, then the record file (promoting into memory).
  // Counts a hit or a miss either way, and times a hit into
  // jst_cache_hit_ms.
  std::optional<ScriptOutcome> lookup(const std::string& key);

  // The same lookup by CacheKey, copying a hit into `outcome` after the
  // lock is released. Counts a hit or a miss but records no hit latency:
  // the caller times the whole hit and reports it via record_hit_ms.
  bool lookup(const CacheKey& key, ScriptOutcome& outcome);

  // One jst_cache_hit_ms sample.
  void record_hit_ms(double ms);

  // True when the key resolves in either tier; no promotion, no counter.
  bool contains(const std::string& key) const;
  bool contains(const CacheKey& key) const;

  // True when the key is in the memory tier; no recency change, no counter.
  bool resident(const CacheKey& key) const;

  // Appends the outcome under `key` (overwriting any previous entry —
  // last record wins on reload). Callers gate on cacheable(); store()
  // also enforces it and silently drops uncacheable outcomes.
  void store(const std::string& key, const ScriptOutcome& outcome);

  // Records a CacheMode::kBypass request against this cache's counters.
  void note_bypass();

  // The never-cache-degraded rule: only settled outcomes whose bytes are
  // a pure function of (source, model, limits). Budget-dataflow/degraded
  // outcomes and deadline trips depend on wall-clock scheduling; hard
  // count trips stay out too so a limits change is the only thing that
  // can re-admit them (their fingerprint changes anyway).
  static bool cacheable(const ScriptOutcome& outcome) {
    switch (outcome.status) {
      case ScriptStatus::kOk:
      case ScriptStatus::kParseError:
      case ScriptStatus::kIneligibleSize:
      case ScriptStatus::kIneligibleAst:
        return true;
      default:
        return false;
    }
  }

  Counters counters() const;

  // Path of the record file ("" for a memory-only cache).
  const std::string& path() const { return path_; }
  // Diagnostic from opening/loading the record file; empty when clean.
  const std::string& load_error() const { return load_error_; }

 private:
  struct DiskRecord {
    std::uint64_t offset = 0;  // byte offset of the record line
    std::uint64_t length = 0;  // line length including the newline
  };
  // A memory-tier outcome in fixed-size form (DESIGN.md §15): everything
  // a settled outcome carries is inline except an error message, a
  // budget trip, skipped stages, partial features, or more than
  // kInline confidences or techniques. Those go in `side`, an immutable
  // shared object, so an eviction cannot free it while a hit copies it.
  struct MemoryEntry {
    static constexpr std::size_t kInline = 10;
    // `confidences` value meaning both lists are in `side`.
    static constexpr std::uint8_t kSpilled = 0xff;

    StageTimings timing;
    Level1Detector::Prediction level1;
    std::array<double, kInline> confidence{};
    std::shared_ptr<const ScriptOutcome> side;
    std::size_t bytes = 0;  // budget charge: key + serialized outcome
    std::array<transform::Technique, kInline> techniques{};
    std::uint8_t status = 0;
    std::uint8_t report_status = 0;
    std::uint8_t confidences = 0;
    std::uint8_t technique_count = 0;

    static MemoryEntry of(const ScriptOutcome& outcome, std::size_t bytes);
    void copy_to(ScriptOutcome& outcome) const;
  };
  using MemoryTier = support::LruTable<CacheKey, MemoryEntry, CacheKeyHash>;
  using DiskIndex = support::FlatTable<CacheKey, DiskRecord, CacheKeyHash>;
  // Side objects of displaced and evicted entries, released after
  // unlocking.
  using Dropped = std::vector<std::shared_ptr<const ScriptOutcome>>;

  void load_locked();
  // Links the entry as most recently used, evicting by the byte budget.
  void insert_memory_locked(const CacheKey& key, MemoryEntry entry,
                            Dropped& dropped);
  void erase_memory_locked(MemoryTier::Id id, Dropped& dropped);
  // Reads and parses one record, setting `charge` to its budget charge.
  std::optional<ScriptOutcome> read_record(const DiskRecord& record,
                                           std::size_t& charge) const;
  bool append_locked(const CacheKey& key, std::string_view line);

  Config config_;
  std::string path_;
  std::string load_error_;
  int fd_ = -1;  // O_APPEND record file; -1 for memory-only caches

  mutable std::mutex mutex_;
  MemoryTier memory_;
  DiskIndex disk_index_;
  std::size_t memory_bytes_ = 0;
  Counters counters_;
};

}  // namespace jst::analysis
