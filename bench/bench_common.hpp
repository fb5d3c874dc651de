#pragma once
// Shared helpers for the experiment-reproduction benches (one binary per
// paper table/figure). Each bench prints the same rows/series the paper
// reports; absolute numbers depend on this machine, the paper-vs-measured
// comparison lives in EXPERIMENTS.md.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/scoring.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace bench {

/// Decodes of one protocol in a report.
inline std::size_t CountEvents(const rfdump::core::MonitorReport& report,
                               rfdump::core::Protocol protocol) {
  return static_cast<std::size_t>(std::count_if(
      report.events.begin(), report.events.end(),
      [protocol](const auto& e) { return e.protocol == protocol; }));
}

/// Scale factor for workload sizes: RFDUMP_SCALE=1.0 reproduces the paper's
/// packet counts exactly; the default 0.5 halves them to keep the whole bench
/// suite fast on one core.
inline double Scale() {
  if (const char* env = std::getenv("RFDUMP_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 0.5;
}

inline std::size_t Scaled(std::size_t paper_count) {
  const auto v = static_cast<std::size_t>(
      static_cast<double>(paper_count) * Scale() + 0.5);
  return v > 0 ? v : 1;
}

inline void PrintHeader(const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("(workload scale %.2f; set RFDUMP_SCALE=1 for paper-size runs)\n",
              Scale());
  std::printf("==============================================================\n");
}

/// Formats a miss rate the way the paper's figures read (log floor at 1e-4).
inline std::string FmtRate(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", rate);
  return buf;
}

// ------------------------------------------------------------ JSON output
// Machine-readable bench results (BENCH_<name>.json). Values are
// pre-rendered strings so nesting is plain composition; the schema each
// bench emits is documented in README.md ("Benchmark JSON output").

inline std::string JsonNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

inline std::string JsonInt(long long v) { return std::to_string(v); }

inline std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

struct JsonKV {
  std::string key;
  std::string val;  // pre-rendered JSON
};

inline std::string JsonObj(const std::vector<JsonKV>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ", ";
    out += JsonStr(fields[i].key) + ": " + fields[i].val;
  }
  out += "}";
  return out;
}

inline std::string JsonArr(const std::vector<std::string>& elems) {
  std::string out = "[";
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (i) out += ", ";
    out += elems[i];
  }
  out += "]";
  return out;
}

/// Writes BENCH_<name>.json into $RFDUMP_BENCH_OUT (or the current
/// directory). Run benches from the repo root to land the files there.
inline void WriteBenchJson(const std::string& name, const std::string& body) {
  const char* dir = std::getenv("RFDUMP_BENCH_OUT");
  const std::string path =
      std::string(dir ? dir : ".") + "/BENCH_" + name + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(body.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

}  // namespace bench
