#pragma once
// Shared helpers for the reproduction harnesses.
//
// Sample sizes default to a few hundred runs per cell so the whole bench
// suite finishes in minutes; set FFIS_RUNS=1000 to reproduce the paper's
// full sample size (1-2 % error bars at 95 % confidence).
//
// Campaign grids are expressed as exp::ExperimentPlans and executed by
// exp::Engine: one shared thread pool for every cell and one golden run per
// application, streamed to the console as Figure-7-style rows.

#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/analysis/stats.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/util/env.hpp"

namespace ffis::bench {

inline std::uint64_t runs_per_cell(std::uint64_t fallback = 200) {
  const std::int64_t runs =
      util::env_int("FFIS_RUNS", static_cast<std::int64_t>(fallback));
  if (runs <= 0) {
    throw std::invalid_argument("FFIS_RUNS must be a positive integer, got " +
                                std::to_string(runs));
  }
  return static_cast<std::uint64_t>(runs);
}

inline std::uint64_t campaign_seed() {
  const std::int64_t seed = util::env_int("FFIS_SEED", 42);
  if (seed < 0) {
    throw std::invalid_argument("FFIS_SEED must be non-negative, got " +
                                std::to_string(seed));
  }
  return static_cast<std::uint64_t>(seed);
}

inline void print_header(const std::string& title, const std::string& paper_reference) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_reference.c_str());
  std::printf("================================================================\n");
}

/// A PlanBuilder pre-seeded with the harness environment (FFIS_RUNS /
/// FFIS_SEED).  Add cells, then hand the built plan to run_plan().
inline exp::PlanBuilder plan(std::uint64_t runs) {
  exp::PlanBuilder builder;
  builder.runs(runs).seed(campaign_seed());
  return builder;
}

/// Executes the plan on the shared engine with a console table sink and
/// returns the full report (per-cell tallies in plan order).  A failed cell
/// throws after the table is printed, so scripted bench runs exit nonzero —
/// matching the old behavior where a failed campaign escaped main().
inline exp::ExperimentReport run_plan(const exp::ExperimentPlan& experiment_plan,
                                      bool show_primitive_count = false) {
  exp::ConsoleTableSink sink(stdout, show_primitive_count);
  exp::Engine engine;
  exp::ExperimentReport report = engine.run(experiment_plan, sink);
  for (const auto& cell : report.cells) {
    if (!cell.error.empty()) {
      throw std::runtime_error("cell " + cell.cell.label + " failed: " + cell.error);
    }
  }
  return report;
}

// --- JSON metric files (BENCH_*.json) ---------------------------------------
//
// Perf-tracking benches persist their headline numbers as a flat-ish JSON
// document so the repo's bench trajectory can be diffed across commits.
// The output path comes from `--json=PATH` (or bare `--json` for the bench's
// default name) on the command line, else the FFIS_BENCH_JSON environment
// variable (a path, or "1" for the default name).

/// Resolves the JSON output path, or nullopt when JSON output is off.
inline std::optional<std::string> json_output_path(int argc, char** argv,
                                                   const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json") return default_path;
    if (arg.rfind("--json=", 0) == 0) {
      const std::string path(arg.substr(7));
      return path.empty() ? default_path : path;
    }
  }
  if (const auto env = util::env_string("FFIS_BENCH_JSON")) {
    return (*env == "1") ? default_path : *env;
  }
  return std::nullopt;
}

/// Minimal JSON object builder: fields render in insertion order; `raw`
/// splices a pre-rendered value (a nested object or array).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& num(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string out = "\"";
    for (const char c : value) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return raw(key, out);
  }
  JsonObject& raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders a JSON array from pre-rendered element strings.
inline std::string json_array(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i != 0) out += ", ";
    out += elements[i];
  }
  out += "]";
  return out;
}

/// Writes the document (with a trailing newline) to `path`.
inline void write_json_file(const std::string& path, const JsonObject& doc) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open JSON output file: " + path);
  out << doc.render() << "\n";
  if (!out) throw std::runtime_error("failed writing JSON output file: " + path);
}

}  // namespace ffis::bench
