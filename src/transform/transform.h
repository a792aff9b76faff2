// Source-to-source transformation tools (§II-B).
//
// Each of the ten monitored techniques is implemented as a configurable
// transformer, standing in for obfuscator.io / JSFuck / gnirts /
// custom-encoding / javascript-minifier / Google Closure. A Dean Edwards
// style packer (the Daft Logic obfuscator's engine) is provided separately
// as the "unseen tool" for the §III-E3 generalization experiment.
//
// `labels_produced()` mirrors the paper's observation that some tools
// always perform a technique in combination with others, giving single
// configurations up to three ground-truth labels.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.h"
#include "transform/technique.h"

namespace jst::transform {

// Applies a single technique. Throws ParseError if `source` fails to parse.
std::string apply_technique(Technique technique, std::string_view source,
                            Rng& rng);

// Applies techniques sequentially (the mixed-configuration generator of
// §III-E2).
std::string apply_techniques(std::span<const Technique> techniques,
                             std::string_view source, Rng& rng);

// Ground-truth labels a single configuration of the technique carries
// (primary label first).
std::vector<Technique> labels_produced(Technique technique);

// Individual transformers -----------------------------------------------

struct IdentifierObfuscationOptions {
  enum class Style {
    kAuto,   // pick one of the styles below at random per file
    kHex,    // _0x1a2b3c (obfuscator.io "hexadecimal")
    kShort,  // 1-2 random letters (packer-style)
    kAlnum,  // random alphanumeric of medium length
  };
  Style style = Style::kAuto;
};
std::string obfuscate_identifiers(
    std::string_view source, Rng& rng,
    const IdentifierObfuscationOptions& options = {});

struct StringObfuscationOptions {
  double split_probability = 0.5;     // split into concatenated chunks
  double hex_escape_probability = 0.4;  // force \xHH escapes
  double char_code_probability = 0.2;   // String.fromCharCode(...)
};
std::string obfuscate_strings(std::string_view source, Rng& rng,
                              const StringObfuscationOptions& options = {});

// Array entries are always hex-escaped and indices always shifted by a
// random constant offset.
struct GlobalArrayOptions {
  std::size_t min_strings = 2;   // below this, leave the file unchanged
};
std::string global_array_transform(std::string_view source, Rng& rng,
                                   const GlobalArrayOptions& options = {});

struct NoAlnumOptions {
  // Inputs longer than this are clipped before encoding: the output grows
  // ~150-1500x (JSFuck files in the wild are megabytes for small inputs),
  // so the default keeps generated datasets tractable while preserving
  // the technique's syntactic shape end-to-end.
  std::size_t max_source_bytes = 256;
};
std::string no_alnum_transform(std::string_view source,
                               const NoAlnumOptions& options = {});

struct DeadCodeOptions {
  double injection_rate = 0.35;  // expected injections per statement slot
  std::size_t max_injections = 200;
};
std::string inject_dead_code(std::string_view source, Rng& rng,
                             const DeadCodeOptions& options = {});

struct FlattenOptions {
  std::size_t min_statements = 3;  // only flatten lists at least this long
};
std::string flatten_control_flow(std::string_view source, Rng& rng,
                                 const FlattenOptions& options = {});

std::string add_self_defending(std::string_view source, Rng& rng);
std::string add_debug_protection(std::string_view source, Rng& rng);

struct MinifyOptions {
  bool rename_locals = true;
  bool advanced = false;  // constant folding, if->ternary, !0/!1, void 0
  std::size_t line_limit = 800;  // wrap long minified lines
};
std::string minify(std::string_view source, const MinifyOptions& options = {});

// --- unmonitored techniques (§II-A) -------------------------------------
// Not among the ten level-2 classes; they exist to validate the paper's
// claim that level 1 still flags such samples as transformed (§II-C).

// a.b -> a["b"] for a fraction of dot accesses.
std::string obfuscate_field_references(std::string_view source, Rng& rng,
                                       double rewrite_probability = 0.9);
// Integer literals -> equivalent arithmetic expressions.
std::string obfuscate_integers(std::string_view source, Rng& rng,
                               double rewrite_probability = 0.85);

// Dean Edwards p.a.c.k.e.r-style packing (base-62 keyword substitution
// wrapped in an eval(function(p,a,c,k,e,d){...}) bootstrap).
std::string pack(std::string_view source, Rng& rng);

// Labels the packer carries (cf. §III-E3: minification advanced and
// simple, identifier obfuscation, string obfuscation).
std::vector<Technique> packer_labels();

}  // namespace jst::transform
