// Crash-recovery battery for the differential WAL (src/relational/wal.h)
// and the TxnManager durability path: kill-at-any-point truncation sweeps
// (every byte length of the log), corrupt-tail records, checkpoint +
// truncate round trips, torn-tail repair on reopen, and a randomized
// checkpoint/WAL property — recovery must always restore exactly a
// committed prefix, matching a serial-replay oracle captured live — plus
// the single-stream ordering contract (version-order replay, the gap cut
// above the checkpoint) and concurrent group commit.

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/relational/persist.h"
#include "src/relational/wal.h"
#include "src/txn/txn_manager.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

/// A scratch directory honoring TXMOD_TEST_ARTIFACT_DIR (the CI stress
/// job sets it and uploads the WAL files of failing runs).
class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* artifact_dir = std::getenv("TXMOD_TEST_ARTIFACT_DIR");
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::filesystem::path base =
        artifact_dir != nullptr ? std::filesystem::path(artifact_dir)
                                : std::filesystem::temp_directory_path();
    dir_ = base / StrCat("txmod_recovery_", ::getpid(), "_", info->name());
    std::filesystem::create_directories(dir_);
    options_.wal_path = (dir_ / "wal.log").string();
    options_.checkpoint_path = (dir_ / "checkpoint.db").string();
  }

  void TearDown() override {
    // Keep the files for upload when the test failed and an artifact dir
    // is configured; clean up otherwise.
    const bool keep = ::testing::Test::HasFailure() &&
                      std::getenv("TXMOD_TEST_ARTIFACT_DIR") != nullptr;
    if (!keep) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::filesystem::path dir_;
  TxnManagerOptions options_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

struct LiveRun {
  Database db;  // final live state
  std::vector<Database> prefix_states;  // state after commit 0..N
  std::string wal_bytes;
};

/// Runs `txn_texts` through a WAL-backed manager, capturing the committed
/// state after every transaction — the serial-replay oracle the recovery
/// sweeps compare against.
LiveRun RunWorkload(const TxnManagerOptions& options,
                    const std::vector<std::string>& txn_texts) {
  LiveRun run;
  run.db = bench::MakeKeyFkDatabase(10, 30);
  bench::AddUnreferencedKeys(&run.db, 4);
  core::IntegritySubsystem ics(&run.db);
  EXPECT_TRUE(ics.DefineConstraint("domain", bench::DomainConstraint()).ok());
  EXPECT_TRUE(ics.DefineConstraint("refint", bench::RefIntConstraint()).ok());
  auto manager = TxnManager::Create(&ics, options);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  run.prefix_states.push_back(run.db.Clone());  // before any commit
  for (const std::string& text : txn_texts) {
    auto result = (*manager)->RunText(text);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if ((*result).committed && (*result).installed) {
      run.prefix_states.push_back(run.db.Clone());
    }
  }
  run.wal_bytes = ReadFile(options.wal_path);
  return run;
}

std::vector<std::string> DefaultWorkload() {
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i) {
    texts.push_back(StrCat("insert(fk_rel, {(", 5000 + i, ", \"k", i % 10,
                           "\", ", 1 + i, ".5)});"));
  }
  // An aborting transaction in the middle: must leave no WAL trace.
  texts.insert(texts.begin() + 3,
               "insert(fk_rel, {(9999, \"nope\", 1.0)});");
  texts.push_back(
      "delete(key_rel, {(\"x0\", \"payload\")}); "
      "insert(key_rel, {(\"fresh\", \"payload\")});");
  return texts;
}

TEST_F(RecoveryTest, CheckpointPlusWalRoundTrip) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(recovered.SameState(run.db, /*compare_time=*/true));
  EXPECT_FALSE(stats.tail_dropped);
  EXPECT_EQ(stats.records_read, run.prefix_states.size() - 1);
}

TEST_F(RecoveryTest, KillAtEveryByteRestoresACommittedPrefix) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  ASSERT_GT(run.prefix_states.size(), 3u);

  // Simulate a crash at every possible write boundary: truncate the WAL
  // to each byte length, recover, and require the result to equal some
  // committed prefix — never a torn half-transaction — with the restored
  // prefix growing monotonically in the truncation length.
  std::size_t last_prefix = 0;
  for (std::size_t len = 0; len <= run.wal_bytes.size(); ++len) {
    WriteFile(options_.wal_path, run.wal_bytes.substr(0, len));
    auto recovered = TxnManager::Recover(options_);
    ASSERT_TRUE(recovered.ok())
        << "len " << len << ": " << recovered.status().ToString();
    std::size_t matched = run.prefix_states.size();
    for (std::size_t p = 0; p < run.prefix_states.size(); ++p) {
      if (recovered->SameState(run.prefix_states[p], /*compare_time=*/true)) {
        matched = p;
        break;
      }
    }
    ASSERT_LT(matched, run.prefix_states.size())
        << "truncation at byte " << len
        << " recovered a state that is no committed prefix";
    ASSERT_GE(matched, last_prefix)
        << "truncation at byte " << len << " lost a previously durable "
        << "commit";
    last_prefix = matched;
  }
  EXPECT_EQ(last_prefix, run.prefix_states.size() - 1)
      << "the full WAL must restore every commit";
}

TEST_F(RecoveryTest, CorruptTailDropsOnlyTheTail) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  // Flip a byte inside the LAST record's body: exactly that record (and
  // nothing before it) must be dropped.
  std::string bytes = run.wal_bytes;
  const std::size_t last_txn = bytes.rfind("\ntxn ");
  ASSERT_NE(last_txn, std::string::npos);
  const std::size_t flip = bytes.find("k", last_txn);
  ASSERT_NE(flip, std::string::npos);
  bytes[flip] = 'q';
  WriteFile(options_.wal_path, bytes);

  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(stats.tail_dropped) << "corruption must be detected";
  EXPECT_TRUE(recovered.SameState(
      run.prefix_states[run.prefix_states.size() - 2],
      /*compare_time=*/true))
      << "recovery must stop exactly before the corrupt record";
}

TEST_F(RecoveryTest, CorruptionMidLogCutsEverythingAfterIt) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  // Corrupt the FIRST record: recovery must fall back to the checkpoint
  // alone (records after a corruption are unreachable by design — the
  // prefix contract).
  std::string bytes = run.wal_bytes;
  const std::size_t first_txn = bytes.find("txn ");
  ASSERT_NE(first_txn, std::string::npos);
  bytes[first_txn + 5] ^= 0x1;
  WriteFile(options_.wal_path, bytes);

  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(stats.tail_dropped);
  EXPECT_TRUE(recovered.SameState(run.prefix_states.front(),
                                  /*compare_time=*/true));
}

TEST_F(RecoveryTest, CheckpointTruncatesAndRecoveryUsesBoth) {
  Database db = bench::MakeKeyFkDatabase(10, 30);
  bench::AddUnreferencedKeys(&db, 4);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options_));

  TXMOD_ASSERT_OK(
      manager->RunText("insert(fk_rel, {(7001, \"k1\", 2.0)});").status());
  TXMOD_ASSERT_OK(manager->Checkpoint());
  // The WAL shrank back to its header.
  EXPECT_LT(ReadFile(options_.wal_path).size(), 32u);
  TXMOD_ASSERT_OK(
      manager->RunText("insert(fk_rel, {(7002, \"k2\", 2.0)});").status());

  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_));
  EXPECT_TRUE(recovered.SameState(db, /*compare_time=*/true));
  EXPECT_EQ(manager->stats().checkpoints, 1u);
}

TEST_F(RecoveryTest, StaleWalRecordsBelowCheckpointAreSkipped) {
  // A crash between checkpoint rename and WAL truncation leaves records
  // the checkpoint already covers; replay must skip them, not re-apply.
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  TXMOD_ASSERT_OK(CheckpointDatabaseToFile(run.db, options_.checkpoint_path));
  // WAL deliberately NOT truncated.
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(recovered.SameState(run.db, /*compare_time=*/true));
  EXPECT_EQ(stats.records_skipped, run.prefix_states.size() - 1);
}

TEST_F(RecoveryTest, TornTailIsRepairedOnReopen) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  // Tear the tail mid-record, then restart a manager over the recovered
  // state: Create() must repair the log so new commits land after the
  // valid prefix and remain recoverable.
  WriteFile(options_.wal_path,
            run.wal_bytes.substr(0, run.wal_bytes.size() - 7));
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_));
  const std::size_t torn_prefix = run.prefix_states.size() - 2;
  ASSERT_TRUE(
      recovered.SameState(run.prefix_states[torn_prefix],
                          /*compare_time=*/true));

  core::IntegritySubsystem ics(&recovered);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options_));
  TXMOD_ASSERT_OK(
      manager->RunText("insert(fk_rel, {(8001, \"k3\", 2.0)});").status());

  TXMOD_ASSERT_OK_AND_ASSIGN(Database after, TxnManager::Recover(options_));
  EXPECT_TRUE(after.SameState(recovered, /*compare_time=*/true));
}

TEST_F(RecoveryTest, RandomizedCheckpointWalProperty) {
  // Randomized workload with interleaved checkpoints: after every step
  // the recovered state must equal the live committed state.
  Database db = bench::MakeKeyFkDatabase(12, 40);
  bench::AddUnreferencedKeys(&db, 6);
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  TXMOD_ASSERT_OK_AND_ASSIGN(auto manager,
                             TxnManager::Create(&ics, options_));

  std::mt19937 rng(424242u);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  int next_id = 40'000;
  for (int step = 0; step < 40; ++step) {
    switch (pick(5)) {
      case 0:
        TXMOD_ASSERT_OK(manager->Checkpoint());
        break;
      case 1:  // aborting insert
        TXMOD_ASSERT_OK(
            manager
                ->RunText(StrCat("insert(fk_rel, {(", next_id++,
                                 ", \"gone\", 1.0)});"))
                .status());
        break;
      case 2:  // delete + reinsert of a shared key
        TXMOD_ASSERT_OK(
            manager
                ->RunText(StrCat("delete(key_rel, {(\"x", pick(6),
                                 "\", \"payload\")});"))
                .status());
        break;
      default:
        TXMOD_ASSERT_OK(
            manager
                ->RunText(StrCat("insert(fk_rel, {(", next_id++, ", \"k",
                                 pick(12), "\", ", 1 + pick(8), ".0)});"))
                .status());
        break;
    }
    if (step % 8 == 0) {
      TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                                 TxnManager::Recover(options_));
      ASSERT_TRUE(recovered.SameState(db, /*compare_time=*/true))
          << "recovery diverged at step " << step;
    }
  }
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_));
  EXPECT_TRUE(recovered.SameState(db, /*compare_time=*/true));
}

TEST_F(RecoveryTest, GroupCommitCountersAreCoherent) {
  LiveRun run = RunWorkload(options_, DefaultWorkload());
  (void)run;
  // Re-open the log and exercise Append/Sync directly.
  TXMOD_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WriteAheadLog> wal,
                             WriteAheadLog::Open(options_.wal_path));
  EXPECT_EQ(wal->appended_lsn(), 0u);
  WalRecord rec;
  rec.version = 12345;  // never applied; only the log mechanics matter
  TXMOD_ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal->Append(rec));
  EXPECT_EQ(lsn, 1u);
  EXPECT_LT(wal->durable_lsn(), lsn + 1);
  TXMOD_ASSERT_OK(wal->Sync(lsn));
  EXPECT_GE(wal->durable_lsn(), lsn);
  EXPECT_GE(wal->fsync_count(), 1u);
  TXMOD_ASSERT_OK(wal->Truncate());
  EXPECT_EQ(ReadFile(options_.wal_path), "txmod-wal 1\n");
}

// ---------------------------------------------------------------------------
// Single-stream recovery contract. Stage C appends outside the commit
// lock, so one log file can hold versions out of file order and, after
// a failed append, with a gap. Recovery replays in version order and
// cuts at the first gap above the checkpoint.
// ---------------------------------------------------------------------------

/// One fk_rel insert or delete, as logged.
WalRecord FkRecord(uint64_t version, int id, bool insert = true) {
  WalRecord rec;
  rec.version = version;
  WalDelta delta{"fk_rel", {}, {}};
  Tuple t({Value::Int(id), Value::String("k1"), Value::Double(1.0)});
  (insert ? delta.plus : delta.minus).push_back(std::move(t));
  rec.deltas.push_back(std::move(delta));
  return rec;
}

/// Writes a checkpoint of the key/fk database at logical time `time`
/// and returns that state.
Database CheckpointAtTime(const TxnManagerOptions& options, uint64_t time) {
  Database db = bench::MakeKeyFkDatabase(10, 30);
  for (uint64_t t = 0; t < time; ++t) db.AdvanceTime();
  EXPECT_TRUE(CheckpointDatabaseToFile(db, options.checkpoint_path).ok());
  return db;
}

/// Appends `records` to the log at `path` in the given (file) order.
void AppendAll(const std::string& path, const std::vector<WalRecord>& records) {
  TXMOD_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WriteAheadLog> wal,
                             WriteAheadLog::Open(path));
  for (const WalRecord& rec : records) {
    TXMOD_ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal->Append(rec));
    TXMOD_ASSERT_OK(wal->Sync(lsn));
  }
}

bool HasFk(const Database& db, int id) {
  return (*db.Find("fk_rel"))
      ->Contains(Tuple({Value::Int(id), Value::String("k1"),
                        Value::Double(1.0)}));
}

TEST_F(RecoveryTest, OutOfOrderAppendsRecoverInVersionOrder) {
  Database expected = CheckpointAtTime(options_, 0);
  // Version 2 deletes what version 1 inserts; applied in file order the
  // delete would come first and the tuple would survive.
  AppendAll(options_.wal_path, {FkRecord(2, 9001, /*insert=*/false),
                                FkRecord(3, 9002), FkRecord(1, 9001)});
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;
  EXPECT_EQ(stats.records_read, 3u);
  EXPECT_EQ(recovered.logical_time(), 3u);
  EXPECT_FALSE(HasFk(recovered, 9001));
  EXPECT_TRUE(HasFk(recovered, 9002));
}

TEST_F(RecoveryTest, VersionGapAboveCheckpointCutsTheTail) {
  CheckpointAtTime(options_, 4);
  // Version 6 is missing: 7 sits above the hole and was never ackable.
  AppendAll(options_.wal_path,
            {FkRecord(5, 9101), FkRecord(7, 9103), FkRecord(8, 9104)});
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_TRUE(stats.tail_dropped);
  EXPECT_NE(stats.tail_error.find("version gap after 5"), std::string::npos)
      << stats.tail_error;
  EXPECT_EQ(stats.records_read, 1u);
  EXPECT_EQ(recovered.logical_time(), 5u);
  EXPECT_TRUE(HasFk(recovered, 9101));
  EXPECT_FALSE(HasFk(recovered, 9103));
  EXPECT_FALSE(HasFk(recovered, 9104));
}

TEST_F(RecoveryTest, GappedRecordsAtOrBelowCheckpointAreSkippedNotCut) {
  // A crash between checkpoint rename and log truncation can leave
  // covered records behind, gaps included: they are skipped, never a
  // cut.
  CheckpointAtTime(options_, 5);
  AppendAll(options_.wal_path, {FkRecord(2, 9201), FkRecord(5, 9202),
                                FkRecord(6, 9203), FkRecord(7, 9204)});
  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(Database recovered,
                             TxnManager::Recover(options_, &stats));
  EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;
  EXPECT_EQ(stats.records_skipped, 2u);
  EXPECT_EQ(recovered.logical_time(), 7u);
  EXPECT_FALSE(HasFk(recovered, 9201));
  EXPECT_FALSE(HasFk(recovered, 9202));
  EXPECT_TRUE(HasFk(recovered, 9203));
  EXPECT_TRUE(HasFk(recovered, 9204));
}

TEST_F(RecoveryTest, ShardStreamHeaderOfAnEarlierBuildIsRefused) {
  CheckpointAtTime(options_, 0);
  // The stream header earlier builds wrote for shard 0 of a 2-way log.
  const std::string shard_header = StrCat("txmod-wal ", 2, " shard 0/2\n");
  WriteFile(options_.wal_path, shard_header);
  EXPECT_EQ(ReadWal(options_.wal_path).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TxnManager::Recover(options_).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteAheadLog::Open(options_.wal_path).status().code(),
            StatusCode::kInvalidArgument);

  // The same log laid out as its `.shard<k>` streams, with no file at
  // the log path itself, must not read as an empty log.
  std::filesystem::remove(options_.wal_path);
  WriteFile(StrCat(options_.wal_path, ".shard0"), shard_header);
  EXPECT_EQ(TxnManager::Recover(options_).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteAheadLog::Open(options_.wal_path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, ConcurrentAppendAndSyncLoseNoRecord) {
  // Group commit under concurrency: every Append then Sync from 8
  // threads. Each Sync must cover its record, the leader/follower
  // batching must never issue more fsyncs than requests, and the file
  // must hold every record.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  TXMOD_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WriteAheadLog> wal,
                             WriteAheadLog::Open(options_.wal_path));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i + 1;
        Result<uint64_t> lsn =
            wal->Append(FkRecord(static_cast<uint64_t>(id), id));
        if (!lsn.ok() || !wal->Sync(*lsn).ok() || wal->durable_lsn() < *lsn) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(wal->appended_lsn(), kTotal);
  EXPECT_EQ(wal->durable_lsn(), kTotal);
  EXPECT_EQ(wal->sync_requests(), kTotal);
  EXPECT_LE(wal->fsync_count(), wal->sync_requests());

  WalReplayStats stats;
  TXMOD_ASSERT_OK_AND_ASSIGN(std::vector<WalRecord> records,
                             ReadWal(options_.wal_path, &stats));
  EXPECT_FALSE(stats.tail_dropped) << stats.tail_error;
  ASSERT_EQ(records.size(), kTotal);
  std::set<uint64_t> versions;
  for (const WalRecord& rec : records) versions.insert(rec.version);
  EXPECT_EQ(versions.size(), kTotal);
  EXPECT_EQ(*versions.begin(), 1u);
  EXPECT_EQ(*versions.rbegin(), kTotal);
}

// ---------------------------------------------------------------------------
// Poisoned-WAL contract: after any failed fsync, the log must never again
// report durability — every later Append/Sync fails, naming the original
// cause. ("fsyncgate": retrying fsync after a failure silently loses the
// pages the kernel already dropped.)
// ---------------------------------------------------------------------------

TEST_F(RecoveryTest, FailedFsyncPoisonsEveryLaterAppendAndSync) {
  FaultInjectingVfs vfs;
  TXMOD_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WriteAheadLog> wal,
                             WriteAheadLog::Open(options_.wal_path, &vfs));
  WalRecord rec;
  rec.version = 1;
  TXMOD_ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal->Append(rec));

  FaultSpec fault;
  fault.op = VfsOp::kFsync;
  fault.kind = FaultKind::kEIO;
  fault.path_substring = "wal";
  vfs.InjectFault(fault);  // one-shot: the NEXT fsync fails, later ones "work"

  const Status failed = wal->Sync(lsn);
  ASSERT_FALSE(failed.ok());
  const std::string original_cause = failed.message();
  EXPECT_NE(original_cause.find("injected"), std::string::npos);

  std::string cause;
  EXPECT_TRUE(wal->broken(&cause));
  EXPECT_EQ(cause, original_cause);

  // The fault was one-shot — the OS-level fsync would now "succeed". The
  // log must refuse anyway: those pages are gone.
  rec.version = 2;
  const Status later_append = wal->Append(rec).status();
  ASSERT_FALSE(later_append.ok());
  EXPECT_EQ(later_append.code(), StatusCode::kUnavailable);
  EXPECT_NE(later_append.message().find("poisoned"), std::string::npos);
  EXPECT_NE(later_append.message().find(original_cause), std::string::npos)
      << "the error must name the original failure, got: "
      << later_append.message();

  const Status later_sync = wal->Sync(lsn);
  ASSERT_FALSE(later_sync.ok());
  EXPECT_EQ(later_sync.code(), StatusCode::kUnavailable);
  EXPECT_NE(later_sync.message().find(original_cause), std::string::npos);

  const Status later_truncate = wal->Truncate();
  ASSERT_FALSE(later_truncate.ok());
  EXPECT_EQ(later_truncate.code(), StatusCode::kUnavailable);
}

TEST_F(RecoveryTest, FsyncGateNeverAcksAfterTheFirstFailure) {
  // The gate variant: fsync fails once, then LIES (reports success while
  // dropping writes). The poison bit must make the lie unreachable.
  FaultInjectingVfs vfs;
  TXMOD_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WriteAheadLog> wal,
                             WriteAheadLog::Open(options_.wal_path, &vfs));
  WalRecord rec;
  rec.version = 1;
  TXMOD_ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal->Append(rec));

  FaultSpec fault;
  fault.op = VfsOp::kFsync;
  fault.kind = FaultKind::kFsyncGate;
  fault.path_substring = "wal";
  vfs.InjectFault(fault);

  ASSERT_FALSE(wal->Sync(lsn).ok());
  EXPECT_LT(wal->durable_lsn(), lsn) << "a failed fsync must not advance "
                                       "durability";
  // No combination of later calls may ever report the record durable.
  EXPECT_FALSE(wal->Sync(lsn).ok());
  EXPECT_FALSE(wal->Append(rec).ok());
  EXPECT_LT(wal->durable_lsn(), lsn);
  EXPECT_TRUE(wal->broken());
}

}  // namespace
}  // namespace txmod::txn
