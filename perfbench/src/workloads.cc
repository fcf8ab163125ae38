#include "perfbench/src/workloads.h"

#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "bench/workload.h"
#include "perfbench/src/cpu_rotation.h"
#include "perfbench/src/ram_device_vfs.h"
#include "perfbench/src/trace.h"
#include "src/algebra/parser.h"
#include "src/baseline/posthoc_checker.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/parallel/executor.h"
#include "src/parallel/parallel_db.h"
#include "src/txn/executor.h"
#include "src/txn/txn_manager.h"

namespace perfbench {

namespace fs = std::filesystem;
using txmod::Database;
using txmod::Status;
using txmod::StrCat;
using txmod::algebra::Transaction;

namespace {

// Every workload drives the program from one client thread, and the
// whole process runs on one CPU at a time (CpuRotation). There is one
// writer, so a commit never meets a conflict; one would count as a
// failed operation.
constexpr int kClients = 1;
constexpr int kServerWorkers = 1;
constexpr int kParallelNodes = 4;
// parallel_refint's pool: one worker besides the calling thread, so that
// phases and exchanges still hand work between threads.
constexpr std::size_t kPoolWorkers = 1;
// How long the process stays on one CPU: a segment of a 10 s or longer
// window spans several visits to every CPU.
constexpr std::chrono::milliseconds kCpuTurn{100};
// Spans kept per traced run (all threads together).
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
// In the traced window every Nth transaction per client goes through
// the verb-split path (one span per Begin/Execute/Commit call, or per
// begin/execute/commit request, plus a ping); the others take the same
// path as the untraced runs inside one span.
constexpr uint64_t kOltpSplitEvery = 8;
constexpr uint64_t kBulkSplitEvery = 2;
// In the probe window every Nth transaction per client is also probed
// from outside (Modify, parse, ModT statement by statement on a copy).
constexpr uint64_t kOltpProbeEvery = 16;
constexpr uint64_t kBulkProbeEvery = 2;
constexpr uint64_t kParallelProbeEvery = 4;
// Marks a work directory as this program's, so that it may be cleaned.
constexpr const char* kWorkdirMarker = ".txmod_perfbench_workdir";
// The measured window is cut into equal segments, as many as give each
// at least kMinSegmentTxns transactions (a hundred beyond its p90), up to
// kMaxSegments; each end-to-end metric is the mean of the middle half of
// its per-segment values (MiddleMean). The OLTP workloads get
// kMaxSegments; bulk_refint and parallel_refint, at 10-30 transactions
// per second, get one.
constexpr int kMaxSegments = 20;
constexpr std::size_t kMinSegmentTxns = 1000;

bool IsOltp(const std::string& w) {
  return w == "oltp_inproc" || w == "oltp_net";
}

// --- per-client bookkeeping --------------------------------------------

/// What one generated transaction came to. Not committed and no error
/// means an integrity abort naming `refint`.
struct Outcome {
  bool committed = false;
  uint64_t changes = 0;  // base-tuple changes installed
  uint64_t retries = 0;
  std::string error;     // anything else: transport, program, conflicts
};

/// Traced-run counters gathered from outside the layers.
struct ProbeTotals {
  txmod::algebra::EvalStats eval;  // evaluation work of eval_txns
  uint64_t eval_txns = 0;
  uint64_t statements_added = 0;
  uint64_t modified = 0;         // Modify calls
  double parallel_measured_us = 0;
  uint64_t exchange_batches = 0;
  uint64_t tuples_transferred = 0;
  uint64_t parallel_txns = 0;

  void Add(const ProbeTotals& o) {
    eval.Add(o.eval);
    eval_txns += o.eval_txns;
    statements_added += o.statements_added;
    modified += o.modified;
    parallel_measured_us += o.parallel_measured_us;
    exchange_batches += o.exchange_batches;
    tuples_transferred += o.tuples_transferred;
    parallel_txns += o.parallel_txns;
  }
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t changes = 0;           // base-tuple changes committed
  uint64_t injected = 0;          // violations the generator reported
  uint64_t injected_aborted = 0;  // ... that ended in an integrity abort
  uint64_t failed = 0;
  /// Transactions started in the traced half (traced and probe windows).
  uint64_t late_committed = 0;
  uint64_t late_changes = 0;
  uint64_t late_retries = 0;
  uint64_t late_aborted = 0;
  uint64_t traced_txns = 0;
  /// Every transaction started inside the untraced window.
  struct Sample {
    int64_t start_ns;
    int64_t done_ns;
    uint64_t changes;  // 0 unless committed
    bool committed;
  };
  std::vector<Sample> window;
  std::string first_error;
  ProbeTotals probe;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

/// Phase boundaries (steady-clock ns): warm-up until `measure`, the
/// untraced window until `mid`; in trace runs the traced window (spans
/// only) until `probe`, and the probe window (outside probes, no spans
/// on the measured path) until `end`.
struct Schedule {
  int64_t measure = 0;
  int64_t mid = 0;
  int64_t probe = 0;
  int64_t end = 0;

  static Schedule Start(const Config& cfg) {
    Schedule s;
    s.measure = NowNanos() + static_cast<int64_t>(cfg.warmup_seconds * 1e9);
    s.end = s.measure + static_cast<int64_t>(cfg.seconds * 1e9);
    s.mid = cfg.trace ? s.measure + (s.end - s.measure) / 2 : s.end;
    s.probe = s.mid + (s.end - s.mid) / 2;
    return s;
  }
  bool Traced(int64_t t) const { return t >= mid && t < probe; }
  bool Probed(int64_t t) const { return t >= probe && t < end; }
};

void SleepUntil(int64_t ns) {
  const int64_t now = NowNanos();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

/// Books one transaction into the tally and checks its outcome against
/// what the generator said it is.
void Record(const TxnSpec& spec, const Outcome& out, int64_t start,
            int64_t done, const Schedule& sched, Tally* t) {
  ++t->attempted;
  if (start >= sched.mid) t->late_retries += out.retries;
  if (spec.injected) ++t->injected;
  if (!out.error.empty()) {
    t->Fail(out.error);
  } else if (out.committed) {
    if (spec.injected) {
      t->Fail("a transaction with an injected violation committed");
    } else if (out.changes != spec.changes()) {
      t->Fail(StrCat("commit installed ", out.changes, " of ",
                     spec.changes(), " tuple changes"));
    } else {
      ++t->committed;
      t->changes += out.changes;
      if (start >= sched.mid) {
        ++t->late_committed;
        t->late_changes += out.changes;
      }
    }
  } else if (spec.injected) {
    ++t->injected_aborted;
    if (start >= sched.mid) ++t->late_aborted;
  } else {
    t->Fail("a valid transaction aborted on integrity");
  }
  if (start >= sched.measure && start < sched.mid) {
    t->window.push_back(
        {start, done, out.committed ? out.changes : 0, out.committed});
  }
}

Outcome FromTxnResult(const txmod::Result<txmod::txn::TxnResult>& r) {
  Outcome out;
  if (!r.ok()) {
    out.error = r.status().ToString();
  } else if (r->committed) {
    out.committed = true;
    out.changes = r->tuples_inserted + r->tuples_deleted;
    out.retries = r->attempts - 1;
  } else if (r->conflict) {
    out.error = "conflict retries exhausted";
  } else if (r->abort_reason.find("refint") == std::string::npos) {
    out.error = StrCat("unexpected abort: ", r->abort_reason);
  }
  return out;
}

Outcome FromNetOutcome(const txmod::Result<txmod::net::Outcome>& r,
                       const TxnSpec& spec) {
  Outcome out;
  if (!r.ok()) {
    out.error = r.status().ToString();
  } else if (r->committed) {
    out.committed = true;
    out.changes = r->installed ? spec.changes() : 0;
    out.retries = r->attempts - 1;
  } else if (r->conflict) {
    out.error = "conflict retries exhausted";
  } else if (r->reason.find("refint") == std::string::npos) {
    out.error = StrCat("unexpected abort: ", r->reason);
  }
  return out;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The mean of the values between the first and the third quartile. The
/// host's speed drifts between a few levels over seconds: a median of
/// per-segment values jumps from one level to the next as their shares
/// in a run change, while this moves with the shares; like the median it
/// ignores a short spell at either extreme.
double MiddleMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string JoinValues(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += StrCat(out.empty() ? "" : " ", v);
  return out;
}

// --- set-up ------------------------------------------------------------

std::vector<Stream> MakeStreams(const Config& cfg) {
  std::vector<Stream> streams;
  if (IsOltp(cfg.workload)) {
    for (int c = 0; c < kClients; ++c) {
      streams.push_back(Stream::Oltp(cfg.seed, c, cfg.sizes, cfg.fault));
    }
  } else {
    // bulk_refint and parallel_refint consume the identical stream.
    streams.push_back(Stream::Bulk(cfg.seed, cfg.sizes, cfg.fault));
  }
  return streams;
}

/// The Section 7 database with the streams' key pools, and the
/// subsystem with the `domain` and `refint` constraints compiled.
struct Catalog {
  std::unique_ptr<Database> db;
  std::unique_ptr<txmod::core::IntegritySubsystem> ics;
};

Catalog BuildCatalog(const Config& cfg, const std::vector<Stream>& streams) {
  Catalog c;
  c.db = std::make_unique<Database>(
      txmod::bench::MakeKeyFkDatabase(cfg.sizes.keys, cfg.sizes.fks));
  AddPoolKeys(c.db.get(), streams);
  c.ics = std::make_unique<txmod::core::IntegritySubsystem>(c.db.get());
  TXMOD_BENCH_CHECK_OK(
      c.ics->DefineConstraint("domain", txmod::bench::DomainConstraint()));
  TXMOD_BENCH_CHECK_OK(
      c.ics->DefineConstraint("refint", txmod::bench::RefIntConstraint()));
  return c;
}

/// The independent full checker: every constraint evaluated in full on
/// `db` (a copy), no triggers, no differential checks.
Status FullCheck(const Database& db, const char* what) {
  Database copy = db.Clone();
  txmod::core::IntegritySubsystem checker_ics(&copy);
  TXMOD_RETURN_IF_ERROR(checker_ics.DefineConstraint(
      "domain", txmod::bench::DomainConstraint()));
  TXMOD_RETURN_IF_ERROR(checker_ics.DefineConstraint(
      "refint", txmod::bench::RefIntConstraint()));
  txmod::baseline::PostHocOptions options;
  options.use_triggers = false;
  txmod::baseline::PostHocChecker checker(&checker_ics, options);
  TXMOD_ASSIGN_OR_RETURN(txmod::txn::TxnResult r, checker.Execute({}));
  if (!r.committed) {
    return Status::Internal(
        StrCat(what, " state fails the full check: ", r.abort_reason));
  }
  return Status::OK();
}

void Check(const Status& st, Report* report) {
  if (!st.ok()) report->errors.push_back(st.ToString());
}
void Check(bool ok, const std::string& what, Report* report) {
  if (!ok) report->errors.push_back(what);
}

std::string FsType(const std::string& dir) {
  struct statfs s {};
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return StrCat("0x", std::to_string(s.f_type));
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      const std::size_t first = line.find_first_not_of(" \t", colon + 1);
      return first == std::string::npos ? "unknown" : line.substr(first);
    }
  }
  return "unknown";
}

void StampEnvironment(const Config& cfg, const CpuRotation& cpus,
                      Report* report) {
  double load[1] = {0};
  getloadavg(load, 1);
  auto& env = report->env;
  env.emplace_back("workload", cfg.workload);
  env.emplace_back("seed", std::to_string(cfg.seed));
  env.emplace_back("seconds", StrCat(cfg.seconds));
  env.emplace_back("trace", cfg.trace ? "1" : "0");
  env.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  env.emplace_back("cpu_rotation", cpus.Describe());
  env.emplace_back("cpu_model", CpuModel());
  env.emplace_back("loadavg_1m", StrCat(load[0]));
  env.emplace_back("keys", std::to_string(cfg.sizes.keys));
  env.emplace_back("fks", std::to_string(cfg.sizes.fks));
  const bool wal = cfg.workload != "parallel_refint";
  env.emplace_back("wal_dir", wal ? cfg.workdir : "none");
  env.emplace_back("wal_fs_type", wal ? FsType(cfg.workdir) : "none");
  env.emplace_back("wal_device",
                   wal ? "ram model: syncs counted, no device flush" : "none");
  env.emplace_back("sync_commits", wal ? "true" : "none");
  env.emplace_back("wal_shards", wal ? "1" : "none");
  env.emplace_back("client_threads", std::to_string(kClients));
  env.emplace_back("connections",
                   cfg.workload == "oltp_net" ? std::to_string(kClients) : "0");
  env.emplace_back("server_workers", cfg.workload == "oltp_net"
                                         ? std::to_string(kServerWorkers)
                                         : "0");
  env.emplace_back("parallel_nodes", cfg.workload == "parallel_refint"
                                         ? std::to_string(kParallelNodes)
                                         : "0");
  env.emplace_back("parallel_pool_workers", cfg.workload == "parallel_refint"
                                                ? std::to_string(kPoolWorkers)
                                                : "0");
}

// --- traced-run probes ---------------------------------------------------

/// Times, from outside, the layers a transaction's execution nests:
/// parsing its text, and ModT run one statement at a time through
/// txn::ExecuteStatement on a copy of the pre-state, split into the
/// user's statements and the checks ModT appended. Returns the
/// evaluation work of that run.
txmod::algebra::EvalStats ProbeAlgebra(const TxnSpec& spec,
                                       const Transaction& modified,
                                       int statements_added, Database pre,
                                       txmod::algebra::PlanCache* cache,
                                       SpanLog* log, uint64_t txn_id) {
  const std::string text = spec.ToText();
  {
    ScopedSpan span(log, "algebra.parse", txn_id);
    txmod::algebra::AlgebraParser parser(&pre.schema());
    TXMOD_BENCH_CHECK_OK(parser.ParseTransaction(text).status());
  }
  txmod::txn::TxnContext ctx(&pre);
  ctx.set_plan_cache(cache);
  txmod::txn::TxnResult result;
  const auto& stmts = modified.program.statements;
  const std::size_t user = stmts.size() - static_cast<std::size_t>(statements_added);
  bool ok = true;
  {
    ScopedSpan span(log, "algebra.stmt_exec", txn_id);
    for (std::size_t i = 0; i < user && ok; ++i) {
      ok = txmod::txn::ExecuteStatement(stmts[i], &ctx, &result).ok();
    }
  }
  {
    ScopedSpan span(log, "algebra.check_eval", txn_id);
    for (std::size_t i = user; i < stmts.size() && ok; ++i) {
      ok = txmod::txn::ExecuteStatement(stmts[i], &ctx, &result).ok();
    }
  }
  return result.stats;
}

// --- TxnManager workloads (oltp_inproc, oltp_net, bulk_refint) ----------

struct ManagerSetup {
  Catalog catalog;
  std::unique_ptr<RamDeviceVfs> vfs;  // outlives the manager
  txmod::txn::TxnManagerOptions options;
  std::unique_ptr<txmod::txn::TxnManager> manager;
  std::unique_ptr<txmod::net::Server> server;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    manager.reset();
  }
};

ManagerSetup SetUpManager(const Config& cfg, const std::vector<Stream>& streams,
                          const std::string& dir) {
  ManagerSetup s;
  s.catalog = BuildCatalog(cfg, streams);
  s.options.wal_path = dir + "/wal.log";
  s.options.checkpoint_path = dir + "/checkpoint.db";
  s.options.sync_commits = true;
  s.options.wal_shards = 1;
  s.vfs = std::make_unique<RamDeviceVfs>();
  s.options.vfs = s.vfs.get();
  auto created =
      txmod::txn::TxnManager::Create(s.catalog.ics.get(), s.options);
  TXMOD_BENCH_CHECK_OK(created.status());
  s.manager = std::move(*created);
  if (cfg.workload == "oltp_net") {
    txmod::net::ServerOptions server_options;
    server_options.num_workers = kServerWorkers;
    s.server = std::make_unique<txmod::net::Server>(s.manager.get(),
                                                    server_options);
    TXMOD_BENCH_CHECK_OK(s.server->Start());
  }
  return s;
}

/// Begin/Execute/Commit by hand, each call in its own span. With one
/// writer a commit meets no conflict, so there is nothing to retry.
Outcome RunSplitInProc(txmod::txn::TxnManager* manager, const Transaction& txn,
                       SpanLog* log, uint64_t id) {
  ScopedSpan root(log, "txn", id);
  std::unique_ptr<txmod::txn::TxnSession> session;
  {
    ScopedSpan span(log, "txn.begin", id);
    session = manager->Begin();
  }
  auto executed = [&] {
    ScopedSpan span(log, "txn.execute", id);
    return session->Execute(txn);
  }();
  if (!executed.ok()) return FromTxnResult(executed);
  ScopedSpan span(log, "txn.commit", id);
  return FromTxnResult(session->Commit());
}

/// The same over the wire: begin/execute/commit verbs.
Outcome RunSplitNet(txmod::net::Client* client, const TxnSpec& spec,
                    const std::string& text, SpanLog* log, uint64_t id) {
  ScopedSpan root(log, "txn", id);
  {
    ScopedSpan span(log, "net.begin", id);
    auto begun = client->Begin();
    if (!begun.ok()) return FromNetOutcome(begun.status(), spec);
  }
  {
    ScopedSpan span(log, "net.execute", id);
    auto executed = client->Execute(text);
    if (!executed.ok()) return FromNetOutcome(executed, spec);
  }
  ScopedSpan span(log, "net.commit", id);
  return FromNetOutcome(client->Commit(), spec);
}

/// Probes a transaction about to run: Modify, then the algebra layers
/// on a copy of the committed state, with the probe's own plan cache so
/// that the workload's cache counters see none of it.
void ProbeManager(ManagerSetup* s, const TxnSpec& spec, const Transaction& txn,
                  txmod::algebra::PlanCache* cache, SpanLog* log, uint64_t id,
                  ProbeTotals* probe) {
  txmod::core::ModifyStats ms;
  auto modified = [&] {
    ScopedSpan span(log, "core.modify", id);
    return s->catalog.ics->Modify(txn, &ms);
  }();
  TXMOD_BENCH_CHECK_OK(modified.status());
  ++probe->modified;
  probe->statements_added += static_cast<uint64_t>(ms.statements_added);
  // The committed state right now: a session's snapshot, copied.
  auto session = s->manager->Begin();
  Database pre = session->snapshot().Clone();
  session->Abort();
  probe->eval.Add(ProbeAlgebra(spec, *modified, ms.statements_added,
                               std::move(pre), cache, log, id));
  ++probe->eval_txns;
}

void ManagerClient(const Config& cfg, ManagerSetup* s, Stream* stream,
                   int client_id, const Schedule& sched, SpanLog* log,
                   Tally* t) {
  std::unique_ptr<txmod::net::Client> net_client;
  if (s->server) {
    auto connected = txmod::net::Client::Connect("127.0.0.1", s->server->port());
    if (!connected.ok()) {
      t->Fail(connected.status().ToString());
      return;
    }
    net_client = std::make_unique<txmod::net::Client>(std::move(*connected));
  }
  const bool bulk = cfg.workload == "bulk_refint";
  const uint64_t split_every = bulk ? kBulkSplitEvery : kOltpSplitEvery;
  const uint64_t probe_every = bulk ? kBulkProbeEvery : kOltpProbeEvery;
  txmod::algebra::PlanCache probe_cache;
  for (uint64_t seq = 0;; ++seq) {
    const int64_t start = NowNanos();
    if (start >= sched.end) break;
    const bool traced = sched.Traced(start) && log->accepting();
    const bool split = traced && seq % split_every == 0;
    const bool probed =
        sched.Probed(start) && seq % probe_every == 0 && log->accepting();
    // Spans of the transactions that take the untraced runs' path.
    SpanLog* run_log = traced && !split ? log : nullptr;
    const uint64_t id = (static_cast<uint64_t>(client_id) << 48) | seq;
    const TxnSpec& spec = stream->Next();
    Outcome out;
    int64_t t0 = 0;
    if (net_client) {
      const std::string text = spec.ToText();
      if (probed) {
        ProbeManager(s, spec, spec.ToTransaction(), &probe_cache, log, id,
                     &t->probe);
      }
      if (split) {
        ScopedSpan span(log, "net.ping", id);
        if (!net_client->Ping().ok()) t->Fail("ping failed");
      }
      t0 = NowNanos();
      if (split) {
        out = RunSplitNet(net_client.get(), spec, text, log, id);
      } else {
        ScopedSpan span(run_log, "run", id);
        out = FromNetOutcome(net_client->Run(text), spec);
      }
    } else {
      const Transaction txn = spec.ToTransaction();
      if (probed) ProbeManager(s, spec, txn, &probe_cache, log, id, &t->probe);
      t0 = NowNanos();
      if (split) {
        out = RunSplitInProc(s->manager.get(), txn, log, id);
      } else {
        ScopedSpan span(run_log, "run", id);
        out = FromTxnResult(s->manager->Run(txn));
      }
    }
    const int64_t done = NowNanos();
    if (traced) ++t->traced_txns;
    Record(spec, out, t0, done, sched, t);
    stream->Settle(out.committed);
  }
}

// --- parallel_refint -------------------------------------------------------

struct ParallelSetup {
  Catalog catalog;
  std::unique_ptr<txmod::parallel::ParallelDatabase> pdb;
  std::unique_ptr<txmod::parallel::ParallelExecutor> executor;
};

ParallelSetup SetUpParallel(const Config& cfg,
                            const std::vector<Stream>& streams) {
  using txmod::parallel::FragmentationKind;
  using txmod::parallel::FragmentationScheme;
  ParallelSetup s;
  s.catalog = BuildCatalog(cfg, streams);
  // fk_rel on id and key_rel on key: a check's fk and key inputs live on
  // different nodes, so they cross the exchange queues.
  const std::map<std::string, FragmentationScheme> schemes = {
      {"fk_rel", FragmentationScheme{FragmentationKind::kHash, 0}},
      {"key_rel", FragmentationScheme{FragmentationKind::kHash, 0}}};
  auto pdb = txmod::parallel::ParallelDatabase::Partition(
      *s.catalog.db, schemes, kParallelNodes);
  TXMOD_BENCH_CHECK_OK(pdb.status());
  s.pdb = std::make_unique<txmod::parallel::ParallelDatabase>(std::move(*pdb));
  txmod::parallel::ParallelOptions options;
  options.num_workers = kPoolWorkers;
  s.executor =
      std::make_unique<txmod::parallel::ParallelExecutor>(s.pdb.get(), options);
  return s;
}

/// Every traced transaction takes the untraced path (Modify, then
/// Execute) with one span around each call.
void ParallelClient(ParallelSetup* s, Stream* stream, const Schedule& sched,
                    SpanLog* log, Tally* t) {
  txmod::algebra::PlanCache probe_cache;
  for (uint64_t seq = 0;; ++seq) {
    const int64_t start = NowNanos();
    if (start >= sched.end) break;
    const bool traced = sched.Traced(start) && log->accepting();
    const bool probed = sched.Probed(start) &&
                        seq % kParallelProbeEvery == 0 && log->accepting();
    SpanLog* tl = traced ? log : nullptr;
    const TxnSpec& spec = stream->Next();
    const Transaction txn = spec.ToTransaction();
    std::unique_ptr<Database> pre;
    if (probed) pre = std::make_unique<Database>(s->pdb->Merge());
    Outcome out;
    txmod::core::ModifyStats ms;
    std::optional<Transaction> modified;
    const int64_t t0 = NowNanos();
    {
      ScopedSpan root(tl, "txn", seq);
      auto m = [&] {
        ScopedSpan span(tl, "core.modify", seq);
        return s->catalog.ics->Modify(txn, &ms);
      }();
      if (!m.ok()) {
        out.error = m.status().ToString();
      } else {
        modified = std::move(*m);
        auto r = [&] {
          ScopedSpan span(tl, "parallel.execute", seq);
          return s->executor->Execute(*modified);
        }();
        if (!r.ok()) {
          out.error = r.status().ToString();
        } else if (r->committed) {
          out.committed = true;
          out.changes = spec.changes();  // verified by the model check
        } else if (r->abort_reason.find("refint") == std::string::npos) {
          out.error = StrCat("unexpected abort: ", r->abort_reason);
        }
        if (traced && r.ok()) {
          ++t->probe.modified;
          t->probe.statements_added +=
              static_cast<uint64_t>(ms.statements_added);
          t->probe.parallel_measured_us += r->stats.measured_us();
          t->probe.exchange_batches += r->stats.exchange_batches();
          t->probe.tuples_transferred += r->stats.tuples_transferred();
          ++t->probe.parallel_txns;
          // The executor's own counts, not those of a probe's copy.
          t->probe.eval.Add(r->eval_stats);
          ++t->probe.eval_txns;
        }
      }
    }
    const int64_t done = NowNanos();
    if (pre && modified) {
      ProbeAlgebra(spec, *modified, ms.statements_added, std::move(*pre),
                   &probe_cache, log, seq);
    }
    if (traced) ++t->traced_txns;
    Record(spec, out, t0, done, sched, t);
    stream->Settle(out.committed);
  }
}

// --- metrics ---------------------------------------------------------------

/// Counters the traced run reads from the layers' own stat structs.
struct LayerCounters {
  double plan_cache_hit_ratio = 0;
  uint64_t retries = 0;
  uint64_t conflicts = 0;
  uint64_t integrity_aborts = 0;
  uint64_t installed_commits = 0;
  uint64_t fsyncs = 0;
  uint64_t wal_appends = 0;
  uint64_t overlay_merges = 0;
  uint64_t overlay_collapses = 0;
  double wal_bytes = 0;
  uint64_t installed_tuples = 0;
  double recover_us = 0;
  uint64_t recovered_records = 0;
  uint64_t requests = 0;
  uint64_t backpressure = 0;
};

/// Latencies (us) of the window's transactions.
std::vector<double> WindowLatencies(const std::vector<Tally>& tallies) {
  std::vector<double> out;
  for (const Tally& t : tallies) {
    for (const Tally::Sample& x : t.window) {
      out.push_back(static_cast<double>(x.done_ns - x.start_ns) / 1e3);
    }
  }
  return out;
}

void AddEndToEnd(const std::vector<double>& setup_s,
                 const std::vector<Tally>& tallies, const Schedule& sched,
                 Report* report) {
  std::size_t samples = 0;
  for (const Tally& t : tallies) samples += t.window.size();
  const int segments = static_cast<int>(std::clamp<std::size_t>(
      samples / kMinSegmentTxns, 1, kMaxSegments));
  const int64_t seg_ns = (sched.mid - sched.measure) / segments;
  const int64_t window_end = sched.measure + seg_ns * segments;
  // Per segment: latencies of the transactions started in it, and the
  // committed work done in it. A commit counts in each segment its
  // call overlaps, in proportion to the overlap, so that rates of long
  // transactions are not rounded to whole commits per segment.
  std::vector<std::vector<double>> latency(segments);
  std::vector<double> commits(segments, 0);
  std::vector<double> changes(segments, 0);
  for (const Tally& t : tallies) {
    for (const Tally::Sample& x : t.window) {
      const int64_t first = (x.start_ns - sched.measure) / seg_ns;
      latency[std::min<int64_t>(first, segments - 1)].push_back(
          static_cast<double>(x.done_ns - x.start_ns) / 1e3);
      if (!x.committed) continue;
      const double duration =
          static_cast<double>(std::max<int64_t>(x.done_ns - x.start_ns, 1));
      for (int64_t k = first; k < segments; ++k) {
        const int64_t lo = std::max(x.start_ns, sched.measure + k * seg_ns);
        const int64_t hi = std::min(
            {x.done_ns, sched.measure + (k + 1) * seg_ns, window_end});
        if (hi < lo) break;
        const double share =
            x.done_ns == x.start_ns ? 1 : static_cast<double>(hi - lo) / duration;
        commits[k] += share;
        changes[k] += share * static_cast<double>(x.changes);
      }
    }
  }
  const double seg_s = static_cast<double>(seg_ns) / 1e9;
  std::vector<double> rate_commits, rate_changes, p50, p90, p99;
  for (int k = 0; k < segments; ++k) {
    rate_commits.push_back(commits[k] / seg_s);
    rate_changes.push_back(changes[k] / seg_s);
    p50.push_back(Percentile(latency[k], 0.50));
    p90.push_back(Percentile(latency[k], 0.90));
    p99.push_back(Percentile(latency[k], 0.99));
  }
  auto& m = report->metrics;
  m.push_back({"setup_s", Median(setup_s), "s"});
  m.push_back({"commits_per_s", MiddleMean(rate_commits), "1/s"});
  m.push_back({"tuples_per_s", MiddleMean(rate_changes), "1/s"});
  m.push_back({"latency_p50_us", MiddleMean(p50), "us"});
  m.push_back({"latency_p90_us", MiddleMean(p90), "us"});
  // The p99 of a request is for the most part the host's scheduling and
  // page-cache stalls, which swing by half from run to run; it is shown
  // with the environment, not as a metric.
  report->env.emplace_back("latency_p99_us", StrCat(MiddleMean(p99)));
  report->env.emplace_back("setup_reps_s", JoinValues(setup_s));
  report->env.emplace_back("latency_samples", std::to_string(samples));
  report->env.emplace_back("segments", std::to_string(segments));
}

/// `run_root` names the root spans of traced transactions that took the
/// untraced runs' path; trace.overhead compares their median duration to
/// the untraced median latency.
void AddPerLayer(const std::vector<SpanLog>& logs,
                 const std::vector<Tally>& tallies, const LayerCounters& c,
                 const char* run_root, Report* report) {
  const std::map<std::string, SpanTotals> spans = Aggregate(logs);
  auto self_us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.MeanSelfUs();
  };
  auto total_us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_us;
  };
  ProbeTotals probe;
  uint64_t traced_txns = 0;
  for (const Tally& t : tallies) {
    probe.Add(t.probe);
    traced_txns += t.traced_txns;
  }
  const double ping = self_us("net.ping");
  const double probed = static_cast<double>(probe.eval_txns);
  const double commits = static_cast<double>(c.installed_commits);
  auto root = spans.find("txn");
  const double root_total = root == spans.end() ? 0 : root->second.total_us;
  const double root_self = root == spans.end() ? 0 : root->second.self_us;

  auto& m = report->metrics;
  m.push_back({"net.ping_rtt_us", ping, "us"});
  m.push_back({"net.begin_rtt_us", self_us("net.begin"), "us"});
  m.push_back({"net.execute_rtt_us", self_us("net.execute"), "us"});
  m.push_back({"net.commit_rtt_us", self_us("net.commit"), "us"});
  m.push_back({"net.backpressure_ratio",
               Ratio(static_cast<double>(c.backpressure),
                     static_cast<double>(c.requests)), "ratio"});
  m.push_back({"algebra.parse_us", self_us("algebra.parse"), "us"});
  m.push_back({"algebra.plan_cache_hit_ratio", c.plan_cache_hit_ratio, "ratio"});
  m.push_back({"algebra.stmt_exec_us", self_us("algebra.stmt_exec"), "us"});
  m.push_back({"algebra.check_eval_us", self_us("algebra.check_eval"), "us"});
  m.push_back({"algebra.tuples_scanned_per_txn",
               Ratio(static_cast<double>(probe.eval.tuples_scanned), probed),
               "count"});
  m.push_back({"algebra.index_probes_per_txn",
               Ratio(static_cast<double>(probe.eval.index_probes), probed),
               "count"});
  m.push_back({"core.modify_us", self_us("core.modify"), "us"});
  m.push_back({"core.statements_added_per_txn",
               Ratio(static_cast<double>(probe.statements_added),
                     static_cast<double>(probe.modified)), "count"});
  m.push_back({"txn.begin_us", self_us("txn.begin"), "us"});
  m.push_back({"txn.execute_us", self_us("txn.execute"), "us"});
  m.push_back({"txn.commit_us", self_us("txn.commit"), "us"});
  m.push_back({"txn.retries_per_commit",
               Ratio(static_cast<double>(c.retries), commits), "count"});
  m.push_back({"txn.conflict_aborts", static_cast<double>(c.conflicts), "count"});
  m.push_back({"txn.integrity_aborts",
               static_cast<double>(c.integrity_aborts), "count"});
  m.push_back({"relational.wal_bytes_per_tuple",
               Ratio(c.wal_bytes, static_cast<double>(c.installed_tuples)),
               "B"});
  m.push_back({"relational.fsyncs_per_commit",
               Ratio(static_cast<double>(c.fsyncs), commits), "count"});
  m.push_back({"relational.wal_appends_per_commit",
               Ratio(static_cast<double>(c.wal_appends), commits), "count"});
  m.push_back({"relational.overlay_merges_per_commit",
               Ratio(static_cast<double>(c.overlay_merges), commits), "count"});
  m.push_back({"relational.overlay_collapses_per_commit",
               Ratio(static_cast<double>(c.overlay_collapses), commits),
               "count"});
  m.push_back({"relational.recover_us_per_record",
               Ratio(c.recover_us, static_cast<double>(c.recovered_records)),
               "us"});
  m.push_back({"parallel.execute_us", self_us("parallel.execute"), "us"});
  m.push_back({"parallel.phase_share",
               Ratio(probe.parallel_measured_us, total_us("parallel.execute")),
               "ratio"});
  m.push_back({"parallel.exchange_batches_per_txn",
               Ratio(static_cast<double>(probe.exchange_batches),
                     static_cast<double>(probe.parallel_txns)), "count"});
  m.push_back({"parallel.tuples_transferred_per_txn",
               Ratio(static_cast<double>(probe.tuples_transferred),
                     static_cast<double>(probe.parallel_txns)), "count"});
  m.push_back({"trace.unattributed_share", Ratio(root_self, root_total),
               "ratio"});
  m.push_back({"trace.overhead",
               Ratio(Median(RootDurationsUs(logs, run_root)),
                     Median(WindowLatencies(tallies))),
               "ratio"});
  report->env.emplace_back("traced_txns", std::to_string(traced_txns));
  report->env.emplace_back("modify_calls", std::to_string(probe.modified));
}

void AddTallies(const std::vector<Tally>& tallies, Report* report) {
  for (const Tally& t : tallies) {
    report->attempted += t.attempted;
    report->failed += t.failed;
    if (!t.first_error.empty()) {
      report->errors.push_back(StrCat("client: ", t.first_error));
    }
  }
}

uint64_t Sum(const std::vector<Tally>& tallies, uint64_t Tally::*field) {
  uint64_t n = 0;
  for (const Tally& t : tallies) n += t.*field;
  return n;
}

/// One span log per client thread; untraced runs get empty ones.
std::vector<SpanLog> MakeLogs(std::size_t threads, bool trace) {
  std::vector<SpanLog> logs;
  for (std::size_t i = 0; i < threads; ++i) {
    logs.emplace_back(trace ? kSpanCapacity / threads : 0);
  }
  return logs;
}

std::string SetupDir(const Config& cfg, int rep) {
  return StrCat(cfg.workdir, "/setup", rep);
}

/// Sets up cfg.setup_reps times with `make(dir)`, timing each
/// construction (tear-down is not timed), and keeps the last set-up.
template <typename Setup, typename Make>
Setup TimedSetUps(const Config& cfg, Make make, std::vector<double>* times) {
  Setup kept;
  for (int r = 0; r < cfg.setup_reps; ++r) {
    const std::string dir = SetupDir(cfg, r);
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      const int64_t t0 = NowNanos();
      Setup fresh = make(dir);
      times->push_back(static_cast<double>(NowNanos() - t0) / 1e9);
      if (r + 1 == cfg.setup_reps) {
        kept = std::move(fresh);
        break;
      }
    }  // members torn down in reverse order of declaration
    fs::remove_all(dir);
  }
  return kept;
}

/// Layer counters at one instant; the traced half reports their growth
/// from the start of the traced half to the end of the run.
struct CounterSnapshot {
  txmod::txn::TxnManagerStats manager;
  txmod::net::ServerStats server;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t wal_bytes = 0;
};

CounterSnapshot Snapshot(const ManagerSetup& s) {
  CounterSnapshot snap;
  snap.manager = s.manager->stats();
  if (s.server) snap.server = s.server->stats();
  snap.plan_hits = s.catalog.ics->plan_cache().shape_hits();
  snap.plan_misses = s.catalog.ics->plan_cache().shape_misses();
  snap.wal_bytes = s.vfs->bytes_written();
  return snap;
}

double HitRatio(uint64_t hits, uint64_t misses) {
  return Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

Report RunManagerWorkload(const Config& cfg) {
  Report report;
  const CpuRotation cpus(kCpuTurn);
  StampEnvironment(cfg, cpus, &report);
  std::vector<Stream> streams = MakeStreams(cfg);

  std::vector<double> setup_s;
  ManagerSetup s = TimedSetUps<ManagerSetup>(
      cfg,
      [&](const std::string& dir) { return SetUpManager(cfg, streams, dir); },
      &setup_s);

  const txmod::txn::TxnManagerStats before = s.manager->stats();
  const uint64_t device_syncs0 = s.vfs->syncs();

  const std::size_t clients = streams.size();
  std::vector<Tally> tallies(clients);
  std::vector<SpanLog> logs = MakeLogs(clients, cfg.trace);
  const Schedule sched = Schedule::Start(cfg);
  CounterSnapshot at_mid;
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(ManagerClient, std::cref(cfg), &s, &streams[c],
                           static_cast<int>(c), std::cref(sched), &logs[c],
                           &tallies[c]);
    }
    if (cfg.trace) {
      SleepUntil(sched.mid);
      at_mid = Snapshot(s);
    }
    for (std::thread& t : threads) t.join();
  }

  // --- correctness gate ---
  if (s.server) s.server->Stop();
  const CounterSnapshot at_end = Snapshot(s);
  const txmod::txn::TxnManagerStats& after = at_end.manager;
  const uint64_t committed = Sum(tallies, &Tally::committed);
  const uint64_t injected = Sum(tallies, &Tally::injected);
  const uint64_t injected_aborted = Sum(tallies, &Tally::injected_aborted);
  const uint64_t installed = after.commits - after.readonly_commits;
  AddTallies(tallies, &report);
  Check(after.readonly_commits == 0,
        StrCat("read-only commits: ", after.readonly_commits), &report);
  Check(after.wal_appends == installed,
        StrCat("wal appends ", after.wal_appends, " != installed commits ",
               installed), &report);
  Check(installed == committed,
        StrCat("installed commits ", installed, " != acked valid commits ",
               committed), &report);
  Check(after.integrity_aborts == injected && injected_aborted == injected,
        StrCat("integrity aborts ", after.integrity_aborts,
               " (of them injected ", injected_aborted,
               ") != injected violations ", injected), &report);
  const uint64_t wal_fsyncs = after.wal_fsyncs - before.wal_fsyncs;
  Check((installed == 0 || wal_fsyncs > 0) &&
            s.vfs->syncs() - device_syncs0 >= wal_fsyncs,
        StrCat("WAL fsyncs ", wal_fsyncs, " not all issued to the device (",
               s.vfs->syncs() - device_syncs0, ")"), &report);
  const Database& final_db = *s.catalog.db;
  Check(CheckModel(final_db, streams, cfg.sizes), &report);
  Check(FullCheck(final_db, "final"), &report);
  s.Stop();

  // Recovery must restore exactly the committed state.
  txmod::WalReplayStats replay;
  const int64_t r0 = NowNanos();
  auto recovered = txmod::txn::TxnManager::Recover(s.options, &replay);
  const double recover_us = static_cast<double>(NowNanos() - r0) / 1e3;
  if (!recovered.ok()) {
    Check(recovered.status(), &report);
  } else {
    Check(recovered->SameState(final_db),
          "recovered state differs from the committed state", &report);
    Check(CheckModel(*recovered, streams, cfg.sizes), &report);
    Check(FullCheck(*recovered, "recovered"), &report);
  }

  if (!cfg.trace) {
    AddEndToEnd(setup_s, tallies, sched, &report);
    return report;
  }
  const txmod::txn::TxnManagerStats& mid = at_mid.manager;
  LayerCounters c;
  c.plan_cache_hit_ratio = HitRatio(at_end.plan_hits - at_mid.plan_hits,
                                    at_end.plan_misses - at_mid.plan_misses);
  c.retries = Sum(tallies, &Tally::late_retries);
  c.conflicts = after.conflicts - mid.conflicts;
  c.integrity_aborts = after.integrity_aborts - mid.integrity_aborts;
  c.installed_commits = Sum(tallies, &Tally::late_committed);
  c.fsyncs = after.wal_fsyncs - mid.wal_fsyncs;
  c.wal_appends = after.wal_appends - mid.wal_appends;
  c.overlay_merges = after.cow_overlay_merges - mid.cow_overlay_merges;
  c.overlay_collapses = after.cow_overlay_collapses - mid.cow_overlay_collapses;
  c.wal_bytes = static_cast<double>(at_end.wal_bytes - at_mid.wal_bytes);
  c.installed_tuples = Sum(tallies, &Tally::late_changes);
  c.recover_us = recover_us;
  c.recovered_records = replay.records_read;
  c.requests = at_end.server.requests - at_mid.server.requests;
  c.backpressure = at_end.server.backpressure_rejections -
                   at_mid.server.backpressure_rejections;
  AddPerLayer(logs, tallies, c, "run", &report);
  if (!cfg.trace_path.empty() && !WriteSpans(logs, cfg.trace_path)) {
    report.errors.push_back("cannot write " + cfg.trace_path);
  }
  return report;
}

Report RunParallelWorkload(const Config& cfg) {
  Report report;
  const CpuRotation cpus(kCpuTurn);
  StampEnvironment(cfg, cpus, &report);
  std::vector<Stream> streams = MakeStreams(cfg);
  std::vector<double> setup_s;
  ParallelSetup s = TimedSetUps<ParallelSetup>(
      cfg, [&](const std::string&) { return SetUpParallel(cfg, streams); },
      &setup_s);

  std::vector<Tally> tallies(1);
  std::vector<SpanLog> logs = MakeLogs(1, cfg.trace);
  const Schedule sched = Schedule::Start(cfg);
  uint64_t hits_mid = 0;
  uint64_t misses_mid = 0;
  {
    std::thread client(ParallelClient, &s, &streams[0], std::cref(sched),
                       &logs[0], &tallies[0]);
    if (cfg.trace) {
      SleepUntil(sched.mid);
      hits_mid = s.executor->plan_cache().shape_hits();
      misses_mid = s.executor->plan_cache().shape_misses();
    }
    client.join();
  }

  AddTallies(tallies, &report);
  const uint64_t injected = tallies[0].injected;
  Check(tallies[0].injected_aborted == injected,
        StrCat("integrity aborts ", tallies[0].injected_aborted,
               " != injected violations ", injected), &report);
  const Database merged = s.pdb->Merge();
  Check(CheckModel(merged, streams, cfg.sizes), &report);
  Check(FullCheck(merged, "merged"), &report);

  if (!cfg.trace) {
    AddEndToEnd(setup_s, tallies, sched, &report);
    return report;
  }
  LayerCounters c;
  c.plan_cache_hit_ratio =
      HitRatio(s.executor->plan_cache().shape_hits() - hits_mid,
               s.executor->plan_cache().shape_misses() - misses_mid);
  c.retries = tallies[0].late_retries;
  c.integrity_aborts = tallies[0].late_aborted;
  c.installed_commits = tallies[0].late_committed;
  AddPerLayer(logs, tallies, c, "txn", &report);
  if (!cfg.trace_path.empty() && !WriteSpans(logs, cfg.trace_path)) {
    report.errors.push_back("cannot write " + cfg.trace_path);
  }
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "oltp_inproc", "oltp_net", "bulk_refint", "parallel_refint"};
  return names;
}

std::string StreamDigest(const Config& cfg, int n, int* first_injected) {
  Stream stream = MakeStreams(cfg)[0];
  uint64_t h = 0xcbf29ce484222325ULL;
  *first_injected = -1;
  for (int i = 0; i < n; ++i) {
    const TxnSpec& spec = stream.Next();
    for (const char ch : spec.ToText() + (spec.injected ? "!" : "")) {
      h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
    }
    if (spec.injected && *first_injected < 0) *first_injected = i;
    stream.Settle(!spec.injected);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Status PrepareWorkdir(const std::string& dir) {
  std::error_code ec;
  const bool empty = !fs::exists(dir, ec) || fs::is_empty(dir, ec);
  if (!empty && !fs::exists(fs::path(dir) / kWorkdirMarker, ec)) {
    return Status::InvalidArgument(
        StrCat("work directory ", dir,
               " is not empty and was not made by this program"));
  }
  fs::create_directories(dir, ec);
  std::ofstream marker(fs::path(dir) / kWorkdirMarker);
  if (ec || !marker) {
    return Status::InvalidArgument(StrCat("cannot use work directory ", dir));
  }
  return Status::OK();
}

Report RunWorkload(const Config& cfg) {
  Report report = cfg.workload == "parallel_refint" ? RunParallelWorkload(cfg)
                                                    : RunManagerWorkload(cfg);
  // Only what this program made: the set-up directories, the marker, and
  // the work directory itself once it is empty.
  std::error_code ec;
  for (int r = 0; r < cfg.setup_reps; ++r) {
    fs::remove_all(SetupDir(cfg, r), ec);
  }
  fs::remove(fs::path(cfg.workdir) / kWorkdirMarker, ec);
  fs::remove(cfg.workdir, ec);
  return report;
}

}  // namespace perfbench
