// The repository benchmark. Runs one named workload against the
// paper's Section 7 database and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Without
// --trace the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Lines before it: the environment stamp (one JSON
// object), each metric by name and unit, and any correctness-gate
// failure. Exits 1 when the gate fails, 2 on bad arguments.
//
//   txmod_perfbench --workload oltp_inproc --seed 7 --seconds 10
//                    --trace 0 --workdir .bench_build/work
//                    [--trace-file PATH] [--keys N --fks N]
//                    [--setup-reps N] [--warmup-seconds S]
//                    [--fault none|reuse_ids|unreported_violation]
//   txmod_perfbench --workload NAME --seed N --stream-digest COUNT
//
// --stream-digest prints a digest of the first COUNT generated
// transactions instead of running (the self-test's determinism check).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

using perfbench::Config;
using perfbench::Fault;
using perfbench::Report;

int Usage(const std::string& why) {
  std::cerr << "txmod_perfbench: " << why << "\n"
            << "usage: txmod_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--trace-file PATH] "
               "[--keys N] [--fks N] [--setup-reps N] [--warmup-seconds S] "
               "[--fault none|reuse_ids|unreported_violation]\n"
               "       txmod_perfbench --workload NAME --seed N "
               "--stream-digest COUNT\n";
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ParseInt(const std::string& s, long long lo, long long hi,
              long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double lo, double hi, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v) || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  long long trace = -1;
  bool have_seed = false;
  long long digest_count = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &n)) return Usage("bad --seed");
      cfg.seed = static_cast<uint64_t>(n);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseDouble(value, 0.01, 3600, &cfg.seconds)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &trace)) return Usage("bad --trace");
    } else if (flag == "--workdir") {
      cfg.workdir = value;
    } else if (flag == "--trace-file") {
      cfg.trace_path = value;
    } else if (flag == "--keys") {
      if (!ParseInt(value, 1, 1 << 24, &n)) return Usage("bad --keys");
      cfg.sizes.keys = static_cast<int>(n);
    } else if (flag == "--fks") {
      if (!ParseInt(value, 4000, 1 << 24, &n)) return Usage("bad --fks");
      cfg.sizes.fks = static_cast<int>(n);
    } else if (flag == "--setup-reps") {
      if (!ParseInt(value, 1, 100, &n)) return Usage("bad --setup-reps");
      cfg.setup_reps = static_cast<int>(n);
    } else if (flag == "--warmup-seconds") {
      if (!ParseDouble(value, 0, 60, &cfg.warmup_seconds)) {
        return Usage("bad --warmup-seconds");
      }
    } else if (flag == "--stream-digest") {
      if (!ParseInt(value, 1, 1000000, &digest_count)) {
        return Usage("bad --stream-digest");
      }
    } else if (flag == "--fault") {
      if (value == "none") {
        cfg.fault = Fault::kNone;
      } else if (value == "reuse_ids") {
        cfg.fault = Fault::kReuseIds;
      } else if (value == "unreported_violation") {
        cfg.fault = Fault::kUnreportedViolation;
      } else {
        return Usage("bad --fault");
      }
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == cfg.workload;
  }
  if (!known) return Usage("unknown --workload '" + cfg.workload + "'");
  if (have_seed && digest_count > 0) {
    int first_injected = -1;
    const std::string digest = perfbench::StreamDigest(
        cfg, static_cast<int>(digest_count), &first_injected);
    std::cout << "digest " << digest << " first_injected " << first_injected
              << "\n";
    return 0;
  }
  if (!have_seed || trace < 0 || cfg.workdir.empty()) {
    return Usage("--seed, --trace and --workdir are required");
  }
  cfg.trace = trace == 1;
  const txmod::Status workdir = perfbench::PrepareWorkdir(cfg.workdir);
  if (!workdir.ok()) return Usage(workdir.ToString());

  const Report report = perfbench::RunWorkload(cfg);

  std::string env = "{";
  for (const auto& [name, value] : report.env) {
    if (env.size() > 1) env += ", ";
    env += JsonString(name) + ": " + JsonString(value);
  }
  std::cout << "env " << env << "}\n";
  std::string metrics = "{";
  bool finite = true;
  for (const perfbench::Metric& m : report.metrics) {
    finite = finite && std::isfinite(m.value);
    std::cout << "metric " << m.name << " = " << JsonNumber(m.value) << " "
              << m.unit << "\n";
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " +
               JsonNumber(std::isfinite(m.value) ? m.value : 0) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  for (const std::string& e : report.errors) {
    std::cout << "GATE FAILED: " << e << "\n";
  }
  const bool correct = report.correct() && finite;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
