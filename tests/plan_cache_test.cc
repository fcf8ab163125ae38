// Cache-coherence oracle for shape-keyed plan caching: a randomized
// key/fk workload executed with the shaped plan cache enabled must be
// *indistinguishable* — transaction outcomes, final database states, and
// per-operator EvalStats (minus the cache counters themselves) — from a
// fresh-compile-every-statement execution, through both the serial and
// the parallel engine. Also pinned here: LRU eviction under a tiny
// capacity stays coherent, defining/dropping a rule invalidates the
// shaped cache, and a newly declared index is picked up by an
// already-cached plan without any recompilation (plans resolve indexes at
// execution time, so index declaration needs no invalidation hook).

#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/algebra/parser.h"
#include "src/common/str_util.h"
#include "src/core/subsystem.h"
#include "src/parallel/executor.h"
#include "tests/test_util.h"

namespace txmod {
namespace {

using algebra::EvalStats;
using algebra::Transaction;
using core::IntegritySubsystem;
using core::SubsystemOptions;

void ExpectSameWork(const EvalStats& a, const EvalStats& b,
                    const std::string& trace) {
  SCOPED_TRACE(trace);
  const EvalStats wa = a.WithoutCacheCounters();
  const EvalStats wb = b.WithoutCacheCounters();
  EXPECT_EQ(wa.tuples_scanned, wb.tuples_scanned);
  EXPECT_EQ(wa.tuples_emitted, wb.tuples_emitted);
  EXPECT_EQ(wa.operators, wb.operators);
  EXPECT_EQ(wa.index_probes, wb.index_probes);
}

/// One engine instance under test: its own database copy (so indexes are
/// declared identically), its own subsystem with the given ad-hoc plan
/// capacity.
struct SerialEngine {
  Database db;
  IntegritySubsystem ics;

  SerialEngine(int keys, int fks, std::size_t capacity)
      : db(bench::MakeKeyFkDatabase(keys, fks)),
        ics(&db, [capacity] {
          SubsystemOptions o;
          o.adhoc_plan_capacity = capacity;
          return o;
        }()) {
    bench::AddUnreferencedKeys(&db, 20);
    TXMOD_EXPECT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
    TXMOD_EXPECT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  }
};

/// A deterministic stream of transactions mixing a handful of statement
/// *shapes* with per-step constants, so the cache sees repeated shapes
/// (hits) and the workload hits both commit and abort paths.
std::vector<std::string> MakeWorkload(int steps, int keys, unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  int next_id = 3'000'000;
  std::vector<std::string> out;
  for (int step = 0; step < steps; ++step) {
    switch (pick(6)) {
      case 0:  // valid fk insert (shape repeats, constants differ)
        out.push_back(StrCat("insert(fk_rel, {(", next_id++, ", \"k",
                             pick(keys), "\", 2.5)});"));
        break;
      case 1:  // orphan fk insert: aborts on refint
        out.push_back(StrCat("insert(fk_rel, {(", next_id++,
                             ", \"orphan", pick(100), "\", 1.0)});"));
        break;
      case 2:  // delete fk tuples by selection
        out.push_back(StrCat("delete(fk_rel, select[ref = \"k", pick(keys),
                             "\"](fk_rel));"));
        break;
      case 3:  // delete a (possibly referenced) key: may abort
        out.push_back(StrCat("delete(key_rel, select[key = \"",
                             pick(3) == 0 ? "x" : "k", pick(keys),
                             "\"](key_rel));"));
        break;
      case 4:  // temp + aggregate-flavored multi-statement transaction
        out.push_back(StrCat(
            "tmp := select[amount > ", pick(8),
            "](fk_rel); delete(fk_rel, tmp); insert(fk_rel, {(", next_id++,
            ", \"k", pick(keys), "\", ", pick(5), ".5)});"));
        break;
      default:  // negative amount: aborts on domain
        out.push_back(StrCat("insert(fk_rel, {(", next_id++, ", \"k",
                             pick(keys), "\", -", 1 + pick(9), ".0)});"));
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serial engine: cached vs canonical-one-shot vs plain fresh compile.
// ---------------------------------------------------------------------------

TEST(PlanCacheCoherenceTest, SerialCachedMatchesFreshCompile) {
  const int keys = 40, fks = 300;
  SerialEngine cached(keys, fks, algebra::PlanCache::kDefaultShapeCapacity);
  SerialEngine uncached(keys, fks, 0);  // canonical path, nothing retained
  SerialEngine fresh(keys, fks, algebra::PlanCache::kDefaultShapeCapacity);

  algebra::AlgebraParser parser(&cached.db.schema());
  const std::vector<std::string> workload = MakeWorkload(60, keys, 7u);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const std::string trace = StrCat("step ", i, ": ", workload[i]);
    SCOPED_TRACE(trace);
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction txn,
                               parser.ParseTransaction(workload[i]));

    TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult r_cached,
                               cached.ics.Execute(txn));
    TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult r_uncached,
                               uncached.ics.Execute(txn));
    // Reference mode: the same modified program, executed without any
    // plan cache at all (per-statement one-shot compiles of the original
    // trees).
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, fresh.ics.Modify(txn));
    TXMOD_ASSERT_OK_AND_ASSIGN(
        txn::TxnResult r_fresh,
        txn::ExecuteTransaction(modified, &fresh.db, nullptr));

    EXPECT_EQ(r_cached.committed, r_fresh.committed);
    EXPECT_EQ(r_cached.abort_reason, r_fresh.abort_reason);
    EXPECT_EQ(r_cached.aborting_statement, r_fresh.aborting_statement);
    EXPECT_EQ(r_cached.tuples_inserted, r_fresh.tuples_inserted);
    EXPECT_EQ(r_cached.tuples_deleted, r_fresh.tuples_deleted);
    ExpectSameWork(r_cached.stats, r_fresh.stats, "cached vs fresh");

    EXPECT_EQ(r_uncached.committed, r_fresh.committed);
    ExpectSameWork(r_uncached.stats, r_fresh.stats, "capacity-0 vs fresh");

    EXPECT_TRUE(cached.db.SameState(fresh.db));
    EXPECT_TRUE(uncached.db.SameState(fresh.db));
  }

  // The workload repeats shapes, so the cache must actually have hit —
  // otherwise this test compared nothing.
  EXPECT_GT(cached.ics.plan_cache().shape_hits(), 0u);
  EXPECT_GT(cached.ics.plan_cache().shape_size(), 0u);
  EXPECT_EQ(uncached.ics.plan_cache().shape_size(), 0u);
}

// ---------------------------------------------------------------------------
// Eviction: a capacity of 2 under many more live shapes keeps evicting
// and recompiling, and stays coherent with the fresh engine.
// ---------------------------------------------------------------------------

TEST(PlanCacheCoherenceTest, TinyCapacityEvictsAndStaysCoherent) {
  const int keys = 30, fks = 200;
  SerialEngine tiny(keys, fks, 2);
  SerialEngine fresh(keys, fks, algebra::PlanCache::kDefaultShapeCapacity);

  algebra::AlgebraParser parser(&tiny.db.schema());
  const std::vector<std::string> workload = MakeWorkload(60, keys, 11u);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    SCOPED_TRACE(StrCat("step ", i, ": ", workload[i]));
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction txn,
                               parser.ParseTransaction(workload[i]));
    TXMOD_ASSERT_OK_AND_ASSIGN(txn::TxnResult r_tiny, tiny.ics.Execute(txn));
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, fresh.ics.Modify(txn));
    TXMOD_ASSERT_OK_AND_ASSIGN(
        txn::TxnResult r_fresh,
        txn::ExecuteTransaction(modified, &fresh.db, nullptr));
    EXPECT_EQ(r_tiny.committed, r_fresh.committed);
    ExpectSameWork(r_tiny.stats, r_fresh.stats, "tiny-capacity vs fresh");
    EXPECT_TRUE(tiny.db.SameState(fresh.db));
  }
  EXPECT_GT(tiny.ics.plan_cache().shape_evictions(), 0u);
  EXPECT_LE(tiny.ics.plan_cache().shape_size(), 2u);
}

// ---------------------------------------------------------------------------
// Parallel engine: a warm per-executor cache across many transactions vs
// the reference mode (capacity 0: one-shot compiles), every node count,
// on a caller-only pool and on the shared worker pool.
// ---------------------------------------------------------------------------

struct ParallelParam {
  int nodes;
  bool caller_only;  // every phase on the calling thread (ThreadPool(0))
};

class ParallelPlanCacheTest : public ::testing::TestWithParam<ParallelParam> {
};

TEST_P(ParallelPlanCacheTest, WarmCacheMatchesReferenceMode) {
  const int keys = 30, fks = 200;
  Database db = bench::MakeKeyFkDatabase(keys, fks);
  bench::AddUnreferencedKeys(&db, 20);
  IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));

  const std::map<std::string, parallel::FragmentationScheme> schemes = {
      {"fk_rel", parallel::FragmentationScheme{
                     parallel::FragmentationKind::kHash, 1}},
      {"key_rel", parallel::FragmentationScheme{
                      parallel::FragmentationKind::kHash, 0}}};
  TXMOD_ASSERT_OK_AND_ASSIGN(
      parallel::ParallelDatabase pdb_cached,
      parallel::ParallelDatabase::Partition(db, schemes, GetParam().nodes));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      parallel::ParallelDatabase pdb_ref,
      parallel::ParallelDatabase::Partition(db, schemes, GetParam().nodes));

  parallel::ThreadPool caller_only(0);
  parallel::ParallelOptions cached_options;
  if (GetParam().caller_only) cached_options.pool = &caller_only;
  parallel::ParallelExecutor exec_cached(&pdb_cached, cached_options);

  parallel::ParallelOptions ref_options = cached_options;
  ref_options.plan_cache_capacity = 0;
  parallel::ParallelExecutor exec_ref(&pdb_ref, ref_options);

  algebra::AlgebraParser parser(&db.schema());
  const std::vector<std::string> workload = MakeWorkload(40, keys, 23u);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    SCOPED_TRACE(StrCat("step ", i, ": ", workload[i]));
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction txn,
                               parser.ParseTransaction(workload[i]));
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
    TXMOD_ASSERT_OK_AND_ASSIGN(parallel::ParallelTxnResult r_cached,
                               exec_cached.Execute(modified));
    TXMOD_ASSERT_OK_AND_ASSIGN(parallel::ParallelTxnResult r_ref,
                               exec_ref.Execute(modified));
    EXPECT_EQ(r_cached.committed, r_ref.committed);
    EXPECT_EQ(r_cached.abort_reason, r_ref.abort_reason);
    ExpectSameWork(r_cached.eval_stats, r_ref.eval_stats,
                   "warm parallel vs reference parallel");
    EXPECT_TRUE(pdb_cached.Merge().SameState(pdb_ref.Merge()));
  }

  // Acceptance: the parallel executor no longer compiles per statement
  // execution — repeated shapes across this 40-transaction stream hit.
  EXPECT_GT(exec_cached.plan_cache().shape_hits(), 0u);
  EXPECT_GT(exec_cached.plan_cache().shape_misses(), 0u);
  EXPECT_LT(exec_cached.plan_cache().shape_misses(),
            exec_cached.plan_cache().shape_hits());
  EXPECT_EQ(exec_ref.plan_cache().shape_size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Nodes, ParallelPlanCacheTest,
    ::testing::Values(ParallelParam{1, true}, ParallelParam{2, true},
                      ParallelParam{4, true}, ParallelParam{2, false},
                      ParallelParam{4, false}));

// ---------------------------------------------------------------------------
// Invalidation: rule definition/drop rebuilds the cache (shaped entries
// included); index declaration is picked up by cached plans with no
// recompile.
// ---------------------------------------------------------------------------

TEST(PlanCacheInvalidationTest, DefineAndDropRuleInvalidateShapedEntries) {
  Database db = bench::MakeKeyFkDatabase(10, 50);
  IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint("domain", bench::DomainConstraint()));

  auto run = [&](const std::string& text) {
    auto r = ics.ExecuteText(text);
    TXMOD_EXPECT_OK(r.status());
    return *r;
  };

  const std::string stmt =
      "insert(fk_rel, {(4000001, \"k1\", 2.0)});";
  txn::TxnResult r1 = run(stmt);
  EXPECT_EQ(r1.stats.plan_cache_misses, 1u);
  EXPECT_EQ(r1.stats.plan_cache_hits, 0u);
  txn::TxnResult r2 = run("insert(fk_rel, {(4000002, \"k2\", 3.0)});");
  EXPECT_EQ(r2.stats.plan_cache_hits, 1u);
  EXPECT_EQ(r2.stats.plan_cache_misses, 0u);

  // Defining a rule rebuilds the plan cache: the old shaped entry must be
  // gone (a stale plan could otherwise outlive rule-driven environment
  // changes), so the next execution is a miss again.
  TXMOD_ASSERT_OK(ics.DefineConstraint("refint", bench::RefIntConstraint()));
  EXPECT_EQ(ics.plan_cache().shape_size(), 0u);
  txn::TxnResult r3 = run("insert(fk_rel, {(4000003, \"k3\", 4.0)});");
  EXPECT_EQ(r3.stats.plan_cache_misses, 1u);
  EXPECT_EQ(r3.stats.plan_cache_hits, 0u);

  // And the new rule is enforced on statements matching the cached shape:
  // an orphan insert of the *same shape* as the cached plan must abort.
  auto orphan = ics.ExecuteText(
      "insert(fk_rel, {(4000004, \"nowhere\", 4.0)});");
  TXMOD_ASSERT_OK(orphan.status());
  EXPECT_FALSE(orphan->committed);

  // Dropping invalidates too.
  EXPECT_GT(ics.plan_cache().shape_size(), 0u);
  TXMOD_ASSERT_OK(ics.DropRule("refint"));
  EXPECT_EQ(ics.plan_cache().shape_size(), 0u);
  auto now_fine = ics.ExecuteText(
      "insert(fk_rel, {(4000005, \"nowhere\", 4.0)});");
  TXMOD_ASSERT_OK(now_fine.status());
  EXPECT_TRUE(now_fine->committed);
}

TEST(PlanCacheInvalidationTest, CachedPlanPicksUpNewlyDeclaredIndex) {
  Database db = bench::MakeKeyFkDatabase(500, 10);
  IntegritySubsystem ics(&db);

  // A membership-style check shape whose fast path needs an index on
  // key_rel(key): diff(project[ref](fk_rel), project[key](key_rel)).
  const std::string stmt =
      "viol := diff(project[ref](fk_rel), project[key](key_rel));";
  auto r1 = ics.ExecuteText(stmt);
  TXMOD_ASSERT_OK(r1.status());
  EXPECT_EQ(r1->stats.plan_cache_misses, 1u);
  EXPECT_EQ(r1->stats.index_probes, 0u);  // no index declared yet

  // Declare the index directly (physical-design change, no rule event, so
  // no cache rebuild happens)...
  ASSERT_NE((*db.FindMutable("key_rel"))->IndexOn({0}), nullptr);

  // ...and the *already cached* plan uses it on its next execution: a
  // cache hit (no recompilation), now probing instead of materializing.
  // Index use is resolved at execution time, which is exactly why index
  // declaration needs no invalidation hook.
  auto r2 = ics.ExecuteText(stmt);
  TXMOD_ASSERT_OK(r2.status());
  EXPECT_EQ(r2->stats.plan_cache_hits, 1u);
  EXPECT_EQ(r2->stats.plan_cache_misses, 0u);
  EXPECT_GT(r2->stats.index_probes, 0u);
}

}  // namespace
}  // namespace txmod
