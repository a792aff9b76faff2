#include "analysis/result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "analysis/wire.h"
#include "obs/metrics.h"
#include "support/clock.h"
#include "support/json_writer.h"
#include "support/strings.h"
#include "transform/technique.h"

namespace jst::analysis {
namespace {

// Record-file format version, independent of the wire schema version the
// header also pins (model_io discipline: bump on any layout change).
constexpr std::uint32_t kCacheFileVersion = 1;
constexpr std::string_view kCacheMagic = "jstcache";
constexpr std::string_view kRecordFileName = "results.ndjson";

// Cache telemetry (DESIGN.md §15). Registered on first cache
// construction; counters export from zero like every jst_* family.
struct CacheMetrics {
  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("jst_cache_hit_total");
  obs::Counter& misses =
      obs::MetricsRegistry::global().counter("jst_cache_miss_total");
  obs::Counter& stores =
      obs::MetricsRegistry::global().counter("jst_cache_store_total");
  obs::Counter& evictions =
      obs::MetricsRegistry::global().counter("jst_cache_evict_total");
  obs::Counter& bypasses =
      obs::MetricsRegistry::global().counter("jst_cache_bypass_total");
  obs::Histogram& hit_ms =
      obs::MetricsRegistry::global().histogram("jst_cache_hit_ms");

  CacheMetrics() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.set_help("jst_cache_hit_total",
                      "Result-cache lookups answered from a tier");
    registry.set_help("jst_cache_miss_total",
                      "Result-cache lookups that fell through to analysis");
    registry.set_help("jst_cache_store_total",
                      "Outcomes appended to the result cache");
    registry.set_help("jst_cache_evict_total",
                      "Memory-tier entries evicted by the byte budget");
    registry.set_help("jst_cache_bypass_total",
                      "Requests that bypassed the result cache");
    registry.set_help("jst_cache_hit_ms",
                      "Latency of result-cache hits (lookup to outcome)");
  }
};

CacheMetrics& cache_metrics() {
  static CacheMetrics* metrics = new CacheMetrics();  // outlives statics
  return *metrics;
}

bool parse_script_status(std::string_view text, ScriptStatus& status) {
  if (text == "ok") status = ScriptStatus::kOk;
  else if (text == "parse_error") status = ScriptStatus::kParseError;
  else if (text == "ineligible_size") status = ScriptStatus::kIneligibleSize;
  else if (text == "ineligible_ast") status = ScriptStatus::kIneligibleAst;
  else if (text == "budget_tokens") status = ScriptStatus::kBudgetTokens;
  else if (text == "budget_ast_nodes") status = ScriptStatus::kBudgetAstNodes;
  else if (text == "budget_depth") status = ScriptStatus::kBudgetDepth;
  else if (text == "deadline_exceeded") {
    status = ScriptStatus::kDeadlineExceeded;
  } else if (text == "budget_dataflow") {
    status = ScriptStatus::kBudgetDataflow;
  } else if (text == "degraded") {
    status = ScriptStatus::kDegraded;
  } else {
    return false;
  }
  return true;
}

bool parse_resource_kind(std::string_view text, ResourceKind& kind) {
  if (text == "source_bytes") kind = ResourceKind::kSourceBytes;
  else if (text == "tokens") kind = ResourceKind::kTokens;
  else if (text == "ast_nodes") kind = ResourceKind::kAstNodes;
  else if (text == "ast_depth") kind = ResourceKind::kAstDepth;
  else if (text == "dataflow_edges") kind = ResourceKind::kDataflowEdges;
  else if (text == "deadline") kind = ResourceKind::kDeadline;
  else return false;
  return true;
}

std::string header_line() {
  JsonWriter writer;
  writer.begin_object();
  writer.key("magic"); writer.value(kCacheMagic);
  writer.key("version");
  writer.value(static_cast<long long>(kCacheFileVersion));
  writer.key("wire");
  writer.value(static_cast<long long>(wire::kWireFormatVersion));
  writer.end_object();
  return writer.str();
}

// Validates one header line; a false return means the whole file is from
// another schema generation and must be discarded (never reinterpreted).
bool header_matches(const support::JsonValue& document, std::string* why) {
  const support::JsonValue* magic = document.find("magic");
  if (magic == nullptr || magic->as_string() != kCacheMagic) {
    *why = "bad magic (not a jstcache record file)";
    return false;
  }
  const support::JsonValue* version = document.find("version");
  if (version == nullptr || !version->is_number() ||
      static_cast<std::uint32_t>(version->as_number()) != kCacheFileVersion) {
    *why = "cache file version mismatch (expected " +
           std::to_string(kCacheFileVersion) + ")";
    return false;
  }
  const support::JsonValue* wire_version = document.find("wire");
  if (wire_version == nullptr || !wire_version->is_number() ||
      static_cast<std::uint32_t>(wire_version->as_number()) !=
          wire::kWireFormatVersion) {
    *why = "wire version mismatch (expected " +
           std::to_string(wire::kWireFormatVersion) + ")";
    return false;
  }
  return true;
}

// Context word of a text key that is not in make_key's form ("fnvtext_").
constexpr std::uint64_t kTextKeyTag = 0x666e76746578745fULL;

bool write_all_fd(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// Everything a record line holds before its outcome JSON:
// {"key":<key>,"outcome":
std::string record_prefix(std::string_view key) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("key"); writer.value(key);
  writer.key("outcome");
  return writer.str();
}

// The memory tier charges an outcome its 16-byte key plus its serialized
// size on every path. store() has the serialized outcome at hand; a line
// it wrote carries those bytes verbatim, so a load or a promotion reads
// their length off the line, and serializes afresh only for a line in
// another layout (a hand-written record).
std::size_t charge_of_record(std::string_view line, std::string_view key,
                             const ScriptOutcome& outcome) {
  const std::string prefix = record_prefix(key);
  if (line.size() > prefix.size() && line.starts_with(prefix) &&
      line.back() == '}') {
    return sizeof(CacheKey) + line.size() - prefix.size() - 1;
  }
  return sizeof(CacheKey) +
         wire::script_outcome_json(outcome, OutputDetail::kFull).size();
}

// FNV-1a 64 of the six ceilings' canonical text.
std::uint64_t limits_digest(const ResourceLimits& limits) {
  char canonical[160];
  const int length = std::snprintf(
      canonical, sizeof(canonical), "%zu|%zu|%zu|%zu|%zu|%.17g",
      limits.max_source_bytes, limits.max_tokens, limits.max_ast_nodes,
      limits.max_ast_depth, limits.max_dataflow_edges, limits.deadline_ms);
  return strings::fnv1a(
      std::string_view(canonical, static_cast<std::size_t>(length)));
}

// Appends key_context's text: model|limits|vN.
void append_key_context(std::string& out, std::string_view model_fingerprint,
                        const ResourceLimits& limits) {
  out.append(model_fingerprint);
  out.push_back('|');
  out.append(content_hash_hex(limits_digest(limits)));
  out.append("|v");
  out.append(std::to_string(wire::kWireFormatVersion));
}

}  // namespace

std::string limits_fingerprint(const ResourceLimits& limits) {
  return content_hash_hex(limits_digest(limits));
}

CacheKey cache_key_of(std::string_view text_key) {
  std::uint64_t content = 0;
  if (text_key.size() > 16 && text_key[16] == '|' &&
      parse_content_hash(text_key.substr(0, 16), content)) {
    return {content, strings::fnv1a(text_key.substr(17))};
  }
  return {strings::fnv1a(text_key), kTextKeyTag};
}

std::optional<ScriptOutcome> parse_script_outcome(
    const support::JsonValue& value) {
  if (!value.is_object()) return std::nullopt;
  ScriptOutcome outcome;

  const support::JsonValue* status = value.find("status");
  if (status == nullptr || !status->is_string() ||
      !parse_script_status(status->as_string(), outcome.status)) {
    return std::nullopt;
  }
  if (const support::JsonValue* message = value.find("error")) {
    if (!message->is_string()) return std::nullopt;
    outcome.error_message = message->as_string();
  }

  const support::JsonValue* timing = value.find("timing");
  if (timing == nullptr || !timing->is_object()) return std::nullopt;
  const auto timing_field = [&](const char* name, double& field) {
    const support::JsonValue* member = timing->find(name);
    if (member == nullptr || !member->is_number()) return false;
    field = member->as_number();
    return true;
  };
  if (!timing_field("total_ms", outcome.timing.total_ms) ||
      !timing_field("static_analysis_ms", outcome.timing.static_analysis_ms) ||
      !timing_field("features_ms", outcome.timing.features_ms) ||
      !timing_field("inference_ms", outcome.timing.inference_ms)) {
    return std::nullopt;
  }

  const support::JsonValue* budget = value.find("budget");
  if (budget == nullptr) return std::nullopt;  // always emitted at kFull
  if (budget->is_object()) {
    BudgetTrip trip;
    const support::JsonValue* kind = budget->find("kind");
    if (kind == nullptr || !kind->is_string() ||
        !parse_resource_kind(kind->as_string(), trip.kind)) {
      return std::nullopt;
    }
    const support::JsonValue* limit = budget->find("limit");
    const support::JsonValue* observed = budget->find("observed");
    const support::JsonValue* stage = budget->find("stage");
    if (limit == nullptr || !limit->is_number() || observed == nullptr ||
        !observed->is_number() || stage == nullptr || !stage->is_string()) {
      return std::nullopt;
    }
    trip.limit = limit->as_number();
    trip.observed = observed->as_number();
    trip.stage = stage->as_string();
    outcome.budget = std::move(trip);
  } else if (!budget->is_null()) {
    return std::nullopt;
  }

  if (const support::JsonValue* skipped = value.find("skipped_stages")) {
    if (!skipped->is_array()) return std::nullopt;
    for (const support::JsonValue& stage : skipped->as_array()) {
      if (!stage.is_string()) return std::nullopt;
      outcome.skipped_stages.push_back(stage.as_string());
    }
  }
  if (const support::JsonValue* partial = value.find("partial_features")) {
    if (!partial->is_array()) return std::nullopt;
    outcome.partial_features.reserve(partial->as_array().size());
    for (const support::JsonValue& feature : partial->as_array()) {
      if (!feature.is_number()) return std::nullopt;
      outcome.partial_features.push_back(
          static_cast<float>(feature.as_number()));
    }
  }

  const support::JsonValue* report = value.find("report");
  if (report == nullptr) return std::nullopt;  // always emitted at kFull
  if (report->is_object()) {
    outcome.report.status = outcome.status;
    const auto probability = [&](const char* name, double& field) {
      const support::JsonValue* member = report->find(name);
      if (member == nullptr || !member->is_number()) return false;
      field = member->as_number();
      return true;
    };
    if (!probability("p_regular", outcome.report.level1.p_regular) ||
        !probability("p_minified", outcome.report.level1.p_minified) ||
        !probability("p_obfuscated", outcome.report.level1.p_obfuscated)) {
      return std::nullopt;
    }
    const support::JsonValue* confidence =
        report->find("technique_confidence");
    if (confidence == nullptr || !confidence->is_array()) return std::nullopt;
    for (const support::JsonValue& entry : confidence->as_array()) {
      if (!entry.is_number()) return std::nullopt;
      outcome.report.technique_confidence.push_back(entry.as_number());
    }
    const support::JsonValue* techniques = report->find("techniques");
    if (techniques == nullptr || !techniques->is_array()) return std::nullopt;
    for (const support::JsonValue& name : techniques->as_array()) {
      if (!name.is_string()) return std::nullopt;
      const std::optional<transform::Technique> technique =
          transform::technique_from_name(name.as_string());
      if (!technique.has_value()) return std::nullopt;
      outcome.report.techniques.push_back(*technique);
    }
  } else if (!report->is_null()) {
    return std::nullopt;
  } else {
    // Report-less outcome: mirror the status so in-process callers see
    // report.status == outcome.status, as the pipeline leaves it.
    outcome.report.status = outcome.status;
  }
  return outcome;
}

std::string ResultCache::make_key(std::string_view content_hash,
                                  std::string_view model_fingerprint,
                                  const ResourceLimits& limits) {
  std::string key;
  key.reserve(content_hash.size() + model_fingerprint.size() + 24);
  key.append(content_hash);
  key.push_back('|');
  append_key_context(key, model_fingerprint, limits);
  return key;
}

std::string ResultCache::key_context(std::string_view model_fingerprint,
                                     const ResourceLimits& limits) {
  std::string context;
  context.reserve(model_fingerprint.size() + 24);
  append_key_context(context, model_fingerprint, limits);
  return context;
}

ResultCache::ResultCache(Config config) : config_(std::move(config)) {
  cache_metrics();  // register the family even if this cache stays cold
  if (config_.dir.empty()) return;
  // Create the leaf directory if absent (parents must exist) — the
  // common --cache-dir flow points at a not-yet-created scratch dir.
  if (::mkdir(config_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    load_error_ = config_.dir + ": mkdir: " + std::strerror(errno);
    return;
  }
  path_ = config_.dir;
  if (path_.back() != '/') path_.push_back('/');
  path_.append(kRecordFileName);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    load_error_ = path_ + ": " + std::strerror(errno);
    path_.clear();
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  load_locked();
}

ResultCache::~ResultCache() {
  if (fd_ >= 0) ::close(fd_);
}

void ResultCache::load_locked() {
  // Read the whole record file (cache files are line-oriented and
  // append-only, so a single sequential read is the fast path).
  std::string contents;
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      load_error_ = path_ + ": read: " + std::strerror(errno);
      return;
    }
    if (n == 0) break;
    contents.append(chunk, static_cast<std::size_t>(n));
  }

  if (contents.empty()) {
    // Fresh file: write the header so the next open validates it.
    const std::string header = header_line() + "\n";
    if (!write_all_fd(fd_, header)) {
      load_error_ = path_ + ": write header: " + std::strerror(errno);
    }
    return;
  }

  std::uint64_t offset = 0;
  bool header_seen = false;
  bool truncate_at_offset = false;
  while (offset < contents.size()) {
    const std::size_t newline = contents.find('\n', offset);
    if (newline == std::string::npos) {
      // A line without its newline is a torn append; drop it.
      truncate_at_offset = true;
      break;
    }
    const std::string_view line(contents.data() + offset, newline - offset);
    const std::uint64_t line_length = newline - offset + 1;
    std::optional<support::JsonValue> document = support::parse_json(line);
    if (!document.has_value() || !document->is_object()) {
      truncate_at_offset = true;
      break;
    }
    if (!header_seen) {
      std::string why;
      if (!header_matches(*document, &why)) {
        // Another generation's file: discard it wholesale and restart
        // with a fresh header (model_io discipline — never reinterpret).
        load_error_ = path_ + ": " + why + "; starting fresh";
        if (::ftruncate(fd_, 0) == 0) {
          const std::string header = header_line() + "\n";
          if (!write_all_fd(fd_, header)) {
            load_error_ += " (header rewrite failed)";
          }
        }
        return;
      }
      header_seen = true;
      offset += line_length;
      continue;
    }
    const support::JsonValue* key = document->find("key");
    const support::JsonValue* outcome_value = document->find("outcome");
    if (key == nullptr || !key->is_string() || outcome_value == nullptr) {
      truncate_at_offset = true;
      break;
    }
    std::optional<ScriptOutcome> outcome =
        parse_script_outcome(*outcome_value);
    if (!outcome.has_value()) {
      truncate_at_offset = true;
      break;
    }
    const CacheKey id = cache_key_of(key->as_string());
    disk_index_[id] = DiskRecord{offset, line_length};
    // Warm the memory tier in file order: the newest appends are the most
    // recently used and survive the byte budget longest. Nothing else
    // holds these outcomes yet, so displaced ones may die under the lock.
    Dropped dropped;
    insert_memory_locked(
        id,
        MemoryEntry::of(*outcome,
                        charge_of_record(line, key->as_string(), *outcome)),
        dropped);
    offset += line_length;
  }
  if (truncate_at_offset) {
    load_error_ = path_ + ": corrupt record at byte " +
                  std::to_string(offset) + "; truncated";
    if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
      load_error_ += " (truncate failed: ";
      load_error_ += std::strerror(errno);
      load_error_ += ")";
    }
  }
  counters_.disk_records = disk_index_.size();
}

ResultCache::MemoryEntry ResultCache::MemoryEntry::of(
    const ScriptOutcome& outcome, std::size_t bytes) {
  MemoryEntry entry;
  entry.timing = outcome.timing;
  entry.level1 = outcome.report.level1;
  entry.bytes = bytes;
  entry.status = static_cast<std::uint8_t>(outcome.status);
  entry.report_status = static_cast<std::uint8_t>(outcome.report.status);
  const std::vector<double>& confidence = outcome.report.technique_confidence;
  const std::vector<transform::Technique>& techniques =
      outcome.report.techniques;
  const bool spilled =
      confidence.size() > kInline || techniques.size() > kInline;
  if (spilled) {
    entry.confidences = kSpilled;
  } else {
    std::copy(confidence.begin(), confidence.end(), entry.confidence.begin());
    std::copy(techniques.begin(), techniques.end(), entry.techniques.begin());
    entry.confidences = static_cast<std::uint8_t>(confidence.size());
    entry.technique_count = static_cast<std::uint8_t>(techniques.size());
  }
  if (spilled || !outcome.error_message.empty() ||
      outcome.budget.has_value() || !outcome.skipped_stages.empty() ||
      !outcome.partial_features.empty()) {
    auto side = std::make_shared<ScriptOutcome>();
    side->error_message = outcome.error_message;
    side->budget = outcome.budget;
    side->skipped_stages = outcome.skipped_stages;
    side->partial_features = outcome.partial_features;
    if (spilled) {
      side->report.technique_confidence = confidence;
      side->report.techniques = techniques;
    }
    entry.side = std::move(side);
  }
  return entry;
}

void ResultCache::MemoryEntry::copy_to(ScriptOutcome& outcome) const {
  outcome.status = static_cast<ScriptStatus>(status);
  outcome.report.status = static_cast<ScriptStatus>(report_status);
  outcome.report.level1 = level1;
  outcome.timing = timing;
  if (confidences == kSpilled) {
    outcome.report.technique_confidence = side->report.technique_confidence;
    outcome.report.techniques = side->report.techniques;
  } else {
    outcome.report.technique_confidence.assign(
        confidence.begin(), confidence.begin() + confidences);
    outcome.report.techniques.assign(techniques.begin(),
                                     techniques.begin() + technique_count);
  }
  if (side != nullptr) {
    outcome.error_message = side->error_message;
    outcome.budget = side->budget;
    outcome.skipped_stages = side->skipped_stages;
    outcome.partial_features = side->partial_features;
  } else {
    outcome.error_message.clear();
    outcome.budget.reset();
    outcome.skipped_stages.clear();
    outcome.partial_features.clear();
  }
}

void ResultCache::erase_memory_locked(MemoryTier::Id id, Dropped& dropped) {
  MemoryEntry& entry = memory_.value(id);
  memory_bytes_ -= entry.bytes;
  if (entry.side != nullptr) dropped.push_back(std::move(entry.side));
  memory_.erase(id);
}

void ResultCache::insert_memory_locked(const CacheKey& key, MemoryEntry entry,
                                       Dropped& dropped) {
  const MemoryTier::Id existing = memory_.find(key);
  if (existing != MemoryTier::kNone) erase_memory_locked(existing, dropped);
  const std::size_t entry_bytes = entry.bytes;
  if (entry_bytes > config_.max_bytes) {
    // Never fits; disk only.
    if (entry.side != nullptr) dropped.push_back(std::move(entry.side));
    return;
  }
  while (memory_bytes_ + entry_bytes > config_.max_bytes) {
    const MemoryTier::Id victim = memory_.oldest();
    if (victim == MemoryTier::kNone) break;
    erase_memory_locked(victim, dropped);
    ++counters_.evictions;
    cache_metrics().evictions.add(1);
  }
  memory_.insert(key, std::move(entry));
  memory_bytes_ += entry_bytes;
}

std::optional<ScriptOutcome> ResultCache::read_record(
    const DiskRecord& record, std::size_t& charge) const {
  std::string buffer(record.length, '\0');
  const ssize_t n = ::pread(fd_, buffer.data(), buffer.size(),
                            static_cast<off_t>(record.offset));
  if (n != static_cast<ssize_t>(buffer.size())) return std::nullopt;
  const std::string_view line(buffer.data(), buffer.size() - 1);  // no \n
  std::optional<support::JsonValue> document = support::parse_json(line);
  if (!document.has_value()) return std::nullopt;
  const support::JsonValue* key = document->find("key");
  const support::JsonValue* outcome_value = document->find("outcome");
  if (key == nullptr || !key->is_string() || outcome_value == nullptr) {
    return std::nullopt;
  }
  std::optional<ScriptOutcome> outcome = parse_script_outcome(*outcome_value);
  if (outcome.has_value()) {
    charge = charge_of_record(line, key->as_string(), *outcome);
  }
  return outcome;
}

bool ResultCache::lookup(const CacheKey& key, ScriptOutcome& outcome) {
  MemoryEntry copy;
  bool in_memory = false;
  DiskRecord record;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const MemoryTier::Id id = memory_.find(key);
    if (id != MemoryTier::kNone) {
      memory_.touch(id);
      ++counters_.hits;
      copy = memory_.value(id);
      in_memory = true;
    } else {
      const DiskIndex::Id disk = disk_index_.find(key);
      if (disk == DiskIndex::kNone) {
        ++counters_.misses;
        cache_metrics().misses.add(1);
        return false;
      }
      record = disk_index_.value(disk);
    }
  }
  if (in_memory) {
    copy.copy_to(outcome);
    cache_metrics().hits.add(1);
    return true;
  }
  // Disk tier: the record is read and parsed unlocked (the file is
  // append-only, so its bytes at `record` never change), then promoted
  // unless a refresh appended a newer record or another lookup already
  // promoted it meanwhile.
  std::size_t charge = 0;
  std::optional<ScriptOutcome> parsed = read_record(record, charge);
  MemoryEntry promoted;
  if (parsed.has_value()) promoted = MemoryEntry::of(*parsed, charge);
  Dropped dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!parsed.has_value()) {
      ++counters_.misses;
      cache_metrics().misses.add(1);
      return false;
    }
    ++counters_.hits;
    const DiskIndex::Id disk = disk_index_.find(key);
    if (disk != DiskIndex::kNone &&
        disk_index_.value(disk).offset == record.offset &&
        memory_.find(key) == MemoryTier::kNone) {
      insert_memory_locked(key, std::move(promoted), dropped);
    }
  }
  cache_metrics().hits.add(1);
  outcome = *std::move(parsed);
  return true;
}

std::optional<ScriptOutcome> ResultCache::lookup(const std::string& key) {
  const auto started = support::Clock::now();
  ScriptOutcome outcome;
  if (!lookup(cache_key_of(key), outcome)) return std::nullopt;
  record_hit_ms(support::ms_since(started));
  return outcome;
}

void ResultCache::record_hit_ms(double ms) {
  cache_metrics().hit_ms.record(ms);
}

bool ResultCache::contains(const std::string& key) const {
  return contains(cache_key_of(key));
}

bool ResultCache::contains(const CacheKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_.find(key) != MemoryTier::kNone ||
         disk_index_.find(key) != DiskIndex::kNone;
}

bool ResultCache::resident(const CacheKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_.find(key) != MemoryTier::kNone;
}

void ResultCache::store(const std::string& key, const ScriptOutcome& outcome) {
  if (!cacheable(outcome)) return;
  const CacheKey id = cache_key_of(key);
  const std::string outcome_json =
      wire::script_outcome_json(outcome, OutputDetail::kFull);
  std::string line;
  if (fd_ >= 0) {
    line = record_prefix(key);
    line.append(outcome_json);
    line.append("}\n");
  }
  MemoryEntry entry =
      MemoryEntry::of(outcome, sizeof(CacheKey) + outcome_json.size());
  Dropped dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0 && !append_locked(id, line)) return;
  insert_memory_locked(id, std::move(entry), dropped);
  ++counters_.stores;
  cache_metrics().stores.add(1);
}

bool ResultCache::append_locked(const CacheKey& key, std::string_view line) {
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0 || !write_all_fd(fd_, line)) {
    // A failed append may have torn the tail; the next load truncates it.
    return false;
  }
  disk_index_[key] =
      DiskRecord{static_cast<std::uint64_t>(end), line.size()};
  counters_.disk_records = disk_index_.size();
  return true;
}

void ResultCache::note_bypass() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.bypasses;
  cache_metrics().bypasses.add(1);
}

ResultCache::Counters ResultCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Counters snapshot = counters_;
  snapshot.entries = memory_.size();
  snapshot.bytes = memory_bytes_;
  snapshot.disk_records = disk_index_.size();
  return snapshot;
}

}  // namespace jst::analysis
