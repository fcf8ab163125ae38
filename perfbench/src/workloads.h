#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/generator.h"
#include "src/common/status.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Work directory for WAL and checkpoint files (see PrepareWorkdir);
  /// what the run creates there is removed at the end.
  std::string workdir;
  /// Where the traced run writes its spans (CSV); empty writes none.
  std::string trace_path;
  Sizes sizes;
  Fault fault = Fault::kNone;
  /// Set-ups per run; setup_s is their median, the last one is measured.
  int setup_reps = 16;
  /// Unmeasured lead-in before the measured window.
  double warmup_seconds = 0.5;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness-gate failures; the run is correct only when empty and
  /// nothing failed.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Environment stamp (name, value).
  std::vector<std::pair<std::string, std::string>> env;

  bool correct() const { return errors.empty() && failed == 0; }
};

const std::vector<std::string>& WorkloadNames();

/// Makes `dir` the work directory of a run: creates it, or accepts it if
/// it is empty or an earlier run's (it holds this program's marker file).
/// Any other non-empty directory is refused, since the run cleans up
/// after itself there.
txmod::Status PrepareWorkdir(const std::string& dir);

/// Runs one workload as configured: set-up, warm-up, the measured window
/// (untraced; with cfg.trace an untraced half followed by a traced half,
/// itself a window with spans and then a window with outside probes),
/// then the correctness gate. End-to-end metrics without trace,
/// per-layer metrics with it.
Report RunWorkload(const Config& cfg);

/// Generates the first `n` transactions of the workload's first client
/// stream (each settled as a correct program would) and returns an FNV-1a
/// digest of their text; `first_injected` receives the index of the
/// first reported violation, or -1. Used by the self-test to show the
/// stream is a function of the seed.
std::string StreamDigest(const Config& cfg, int n, int* first_injected);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
