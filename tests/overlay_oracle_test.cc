// Overlay-session oracle: every session writes into overlay levels over
// its snapshot, and commits adopt or re-apply those levels. Checked
// against two independent references:
//
//  1. a deterministic randomized session script (interleaved sessions,
//     conflicts, integrity aborts, multi-execute sessions, explicit
//     aborts) run against one manager: the final state must equal the
//     serial replay of the committed sessions' transactions in commit
//     order, every committed session must also commit serially, and the
//     final state must pass the full post-hoc constraint check;
//
//  2. a multi-threaded workload (disjoint inserts plus per-thread
//     contended keys, retried through Run) with the same two checks,
//     exercising commit compaction and shared overlay levels under real
//     concurrency (this test runs in the TSan CI job).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

using algebra::Transaction;

constexpr int kKeys = 20;
constexpr int kSharedKeys = 8;

Database MakeInitialDatabase() {
  Database db = bench::MakeKeyFkDatabase(kKeys, 200);
  bench::AddUnreferencedKeys(&db, 32);
  return db;
}

/// Replays `committed` (each entry one committed unit's transactions, in
/// commit order) serially from `initial` and checks that every
/// transaction commits there too and the final state equals `live`.
void ExpectSerialReplayMatches(
    const Database& initial,
    const std::vector<std::vector<const Transaction*>>& committed,
    const Database& live) {
  Database replay_db = initial.Clone();
  core::IntegritySubsystem replay_ics(&replay_db);
  TXMOD_ASSERT_OK(testing::DefineKeyFkConstraints(&replay_ics));
  for (std::size_t i = 0; i < committed.size(); ++i) {
    for (const Transaction* txn : committed[i]) {
      TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult replayed,
                                 replay_ics.Execute(*txn));
      ASSERT_TRUE(replayed.committed)
          << "commit #" << i << " aborts in serial replay: "
          << replayed.abort_reason;
    }
  }
  EXPECT_TRUE(live.SameState(replay_db))
      << "final state differs from serial replay in commit order";
  EXPECT_TRUE(testing::SatisfiesKeyFkConstraints(live));
}

// ---------------------------------------------------------------------------
// Pin 1: deterministic session script.
// ---------------------------------------------------------------------------

struct ScriptStep {
  enum class Kind { kBegin, kExecute, kCommit, kAbort } kind;
  int slot = 0;       // which of the open-session slots
  Transaction txn;    // kExecute only
  std::string trace;  // for failure messages
};

/// A randomized but fully pre-generated script over `slots` concurrently
/// open sessions: the interleaving (and thus which commits conflict) is
/// part of the script.
std::vector<ScriptStep> MakeScript(unsigned seed, int steps, int slots) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  int next_id = 2'000'000;
  std::vector<ScriptStep> script;
  for (int i = 0; i < steps; ++i) {
    ScriptStep step;
    step.slot = pick(slots);
    switch (pick(8)) {
      case 0:
        step.kind = ScriptStep::Kind::kBegin;
        step.trace = "begin";
        break;
      case 1:
        step.kind = ScriptStep::Kind::kCommit;
        step.trace = "commit";
        break;
      case 2:
        step.kind = ScriptStep::Kind::kAbort;
        step.trace = "abort";
        break;
      default: {
        step.kind = ScriptStep::Kind::kExecute;
        switch (pick(6)) {
          case 0:
          case 1: {  // valid fk insert
            step.txn.program.statements.push_back(algebra::Statement::Insert(
                "fk_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::Int(next_id++),
                            Value::String(StrCat("k", pick(kKeys))),
                            Value::Double(1.0 + pick(9))})},
                    3)));
            step.trace = "valid fk insert";
            break;
          }
          case 2: {  // contended shared-key delete
            step.txn.program.statements.push_back(algebra::Statement::Delete(
                "key_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::String(StrCat("x", pick(kSharedKeys))),
                            Value::String("payload")})},
                    2)));
            step.trace = "shared key delete";
            break;
          }
          case 3: {  // contended shared-key (re-)insert
            step.txn.program.statements.push_back(algebra::Statement::Insert(
                "key_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::String(StrCat("x", pick(kSharedKeys))),
                            Value::String("payload")})},
                    2)));
            step.trace = "shared key insert";
            break;
          }
          case 4: {  // fk insert on a shared key: races its deletes
            step.txn.program.statements.push_back(algebra::Statement::Insert(
                "fk_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::Int(next_id++),
                            Value::String(StrCat("x", pick(kSharedKeys))),
                            Value::Double(2.0)})},
                    3)));
            step.trace = "fk insert on shared key";
            break;
          }
          default: {  // dangling ref: integrity abort
            step.txn.program.statements.push_back(algebra::Statement::Insert(
                "fk_rel",
                algebra::RelExpr::Literal(
                    {Tuple({Value::Int(next_id++),
                            Value::String(StrCat("zz", pick(50))),
                            Value::Double(3.0)})},
                    3)));
            step.trace = "dangling fk insert";
            break;
          }
        }
        break;
      }
    }
    script.push_back(std::move(step));
  }
  return script;
}

TEST(OverlayOracleTest, SessionScriptMatchesSerialReplay) {
  constexpr int kSlots = 3;
  for (unsigned seed : {11u, 29u, 47u, 83u}) {
    SCOPED_TRACE(StrCat("seed ", seed));
    const std::vector<ScriptStep> script = MakeScript(seed, 400, kSlots);
    Database db = MakeInitialDatabase();
    const Database initial = db.Clone();
    core::IntegritySubsystem ics(&db);
    TXMOD_ASSERT_OK(testing::DefineKeyFkConstraints(&ics));
    TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics));

    // Per slot: the open session and the transactions it executed.
    std::vector<std::unique_ptr<TxnSession>> sessions(kSlots);
    std::vector<std::vector<const Transaction*>> executed(kSlots);
    std::vector<std::vector<const Transaction*>> committed;
    uint64_t installed = 0;
    int integrity_aborts = 0, conflicts = 0;
    for (const ScriptStep& step : script) {
      const auto slot = static_cast<std::size_t>(step.slot);
      std::unique_ptr<TxnSession>& session = sessions[slot];
      const bool open = session != nullptr && !session->finished();
      switch (step.kind) {
        case ScriptStep::Kind::kBegin:
          // (Re-)opening a slot drops any session already in it — the
          // destructor release path is exercised too.
          session = manager->Begin();
          executed[slot].clear();
          break;
        case ScriptStep::Kind::kExecute:
          // Errors (executing on an integrity-aborted session) are fine:
          // that session can no longer commit anything.
          if (open && session->Execute(step.txn).ok()) {
            executed[slot].push_back(&step.txn);
          }
          break;
        case ScriptStep::Kind::kCommit: {
          if (!open) break;
          TXMOD_ASSERT_OK_AND_ASSIGN(TxnResult r, session->Commit());
          if (r.committed) {
            committed.push_back(executed[slot]);
            if (r.installed) ++installed;
          } else if (r.conflict) {
            ++conflicts;
          } else {
            ++integrity_aborts;
          }
          break;
        }
        case ScriptStep::Kind::kAbort:
          if (session != nullptr) session->Abort();
          break;
      }
    }
    sessions.clear();
    EXPECT_EQ(manager->committed_version(), initial.logical_time() + installed);
    EXPECT_GT(integrity_aborts + conflicts, 0) << "script exercises no aborts";
    ExpectSerialReplayMatches(initial, committed, db);
  }
}

// ---------------------------------------------------------------------------
// Pin 2: threaded workload (TSan coverage of shared overlay levels and
// commit compaction).
// ---------------------------------------------------------------------------

int OracleThreads() {
  if (const char* env = std::getenv("TXMOD_ORACLE_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return std::min(n, 32);
  }
  return 4;
}

TEST(OverlayOracleTest, ThreadedWorkloadMatchesSerialReplay) {
  const int num_threads = OracleThreads();
  Database db = MakeInitialDatabase();
  const Database initial = db.Clone();
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(testing::DefineKeyFkConstraints(&ics));
  TxnManagerOptions options;
  options.max_attempts = 64;  // retries must drain under full contention
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager, TxnManager::Create(&ics, options));

  // Each thread interleaves disjoint fk inserts with delete / re-insert
  // rounds of its OWN key: real write-write and read-write contention.
  constexpr int kRounds = 20;
  std::vector<std::vector<Transaction>> workloads(num_threads);
  for (int t = 0; t < num_threads; ++t) {
    int next_id = 3'000'000 + t * 100'000;
    for (int round = 0; round < kRounds; ++round) {
      Transaction insert;
      insert.program.statements.push_back(algebra::Statement::Insert(
          "fk_rel", algebra::RelExpr::Literal(
                        {Tuple({Value::Int(next_id++),
                                Value::String(StrCat("k", round % kKeys)),
                                Value::Double(2.0)})},
                        3)));
      workloads[t].push_back(std::move(insert));
      Transaction toggle;  // delete own key (round even), re-insert (odd)
      auto literal = algebra::RelExpr::Literal(
          {Tuple({Value::String(StrCat("x", t)), Value::String("payload")})},
          2);
      toggle.program.statements.push_back(
          round % 2 == 0
              ? algebra::Statement::Delete("key_rel", std::move(literal))
              : algebra::Statement::Insert("key_rel", std::move(literal)));
      workloads[t].push_back(std::move(toggle));
    }
  }

  struct Committed {
    uint64_t version;
    bool installed;
    const Transaction* txn;
  };
  std::vector<std::vector<Committed>> committed_per_thread(num_threads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t]() {
      for (const Transaction& txn : workloads[t]) {
        auto result = manager->Run(txn);
        if (!result.ok() || !result->committed) {
          ++failures;
          continue;
        }
        committed_per_thread[t].push_back(
            Committed{result->commit_version, result->installed, &txn});
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0)
      << "a transaction failed to commit despite retries";

  // Serialize: commit-version order, write-ful commits before the
  // read-only commits that observed the same version.
  std::vector<Committed> order;
  for (const auto& per_thread : committed_per_thread) {
    order.insert(order.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(order.begin(), order.end(),
            [](const Committed& a, const Committed& b) {
              if (a.version != b.version) return a.version < b.version;
              return a.installed && !b.installed;
            });
  std::vector<std::vector<const Transaction*>> serial;
  for (const Committed& c : order) serial.push_back({c.txn});
  ExpectSerialReplayMatches(initial, serial, db);
}

}  // namespace
}  // namespace txmod::txn
