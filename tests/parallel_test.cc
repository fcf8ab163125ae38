#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/str_util.h"
#include "src/algebra/parser.h"
#include "src/core/subsystem.h"
#include "src/parallel/executor.h"
#include "tests/test_util.h"

namespace txmod::parallel {
namespace {

using algebra::Transaction;
using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::MakeBeerDatabase;

/// The paper's PRISMA setup: beer fragmented on its foreign-key attribute,
/// brewery on its key attribute — referential checks become node-local.
std::map<std::string, FragmentationScheme> BeerSchemes() {
  return {
      {"beer", FragmentationScheme{FragmentationKind::kHash, 2}},
      {"brewery", FragmentationScheme{FragmentationKind::kHash, 0}},
  };
}

class ParallelTest : public ::testing::TestWithParam<int> {
 protected:
  ParallelTest() : db_(MakeBeerDatabase()) {
    AddBrewery(&db_, "heineken", "amsterdam", "nl");
    AddBrewery(&db_, "guinness", "dublin", "ie");
    for (int i = 0; i < 20; ++i) {
      AddBeer(&db_, txmod::StrCat("beer", i), "lager",
              i % 2 == 0 ? "heineken" : "guinness", 4.0 + (i % 5));
    }
  }

  Transaction ParseTxn(const std::string& text) {
    algebra::AlgebraParser parser(&db_.schema());
    auto t = parser.ParseTransaction(text);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? *t : Transaction{};
  }

  Database db_;
};

TEST_P(ParallelTest, PartitionPreservesContentAndMergeRestoresIt) {
  const int nodes = GetParam();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db_, BeerSchemes(), nodes));
  EXPECT_EQ(pdb.num_nodes(), nodes);
  std::size_t beers = 0;
  for (int i = 0; i < nodes; ++i) {
    TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* beer, pdb.node(i).Find("beer"));
    beers += beer->size();
  }
  EXPECT_EQ(beers, 20u);
  EXPECT_TRUE(pdb.Merge().SameState(db_));
}

TEST_P(ParallelTest, HashFragmentationColocatesEqualKeys) {
  const int nodes = GetParam();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db_, BeerSchemes(), nodes));
  // All beers of one brewery sit in the same fragment.
  for (int i = 0; i < nodes; ++i) {
    TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* beer, pdb.node(i).Find("beer"));
    for (const Tuple& t : *beer) {
      EXPECT_EQ(FragmentOfValue(t.at(2), nodes), i);
    }
  }
}

/// Every node runs the transaction through its own TxnContext, and
/// nothing copies a node's database, so commit folds each node's overlay
/// levels back into the very relation objects the nodes held before —
/// flat, and without an O(|R|) collapse — across a commit, an abort and a
/// second commit.
TEST_P(ParallelTest, CommitFoldsEveryNodeInPlace) {
  const int nodes = GetParam();
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db_, BeerSchemes(), nodes));
  auto relations = [&pdb, nodes] {
    std::vector<const Relation*> out;
    for (int i = 0; i < nodes; ++i) {
      for (const char* name : {"beer", "brewery"}) {
        out.push_back(*pdb.node(i).Find(name));
      }
    }
    return out;
  };
  const std::vector<const Relation*> before = relations();
  ThreadPool caller_pool(0);
  ParallelOptions options;
  options.pool = &caller_pool;
  ParallelExecutor exec(&pdb, options);
  CowStats::Reset();
  const std::vector<std::pair<std::string, bool>> steps = {
      {"insert(brewery, {(\"plzen\", \"pilsen\", \"cz\")}); "
       "insert(beer, {(\"urquell\", \"lager\", \"plzen\", 4.4)}); "
       "delete(beer, select[name = \"beer3\"](beer));",
       true},
      {"insert(beer, {(\"orphan\", \"ale\", \"nowhere\", 5.0)}); "
       "delete(beer, select[name = \"beer4\"](beer));",
       false},
      {"delete(beer, select[name = \"beer5\"](beer)); "
       "update(beer, name = \"beer6\", brewery := \"plzen\");",
       true},
  };
  for (const auto& [text, commits] : steps) {
    SCOPED_TRACE(text);
    TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified,
                               ics.Modify(ParseTxn(text)));
    TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult r, exec.Execute(modified));
    EXPECT_EQ(r.committed, commits) << r.abort_reason;
    EXPECT_EQ(relations(), before);
    for (const Relation* rel : relations()) EXPECT_FALSE(rel->is_overlay());
  }
  EXPECT_EQ(CowStats::overlay_collapses.load(), 0u);
}

/// Runs the same modified transaction serially and in parallel (on a
/// caller-only pool, or on the shared worker pool); both must agree on the
/// outcome and the final state.
void ExpectParallelMatchesSerial(Database db, const Transaction& modified,
                                 int nodes, bool caller_only = true) {
  // Serial execution.
  Database serial_db = db.Clone();
  auto serial = txn::ExecuteTransaction(modified, &serial_db);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  // Parallel execution.
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db, BeerSchemes(), nodes));
  ThreadPool caller_pool(0);
  ParallelOptions options;
  if (caller_only) options.pool = &caller_pool;
  ParallelExecutor exec(&pdb, options);
  TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult parallel,
                             exec.Execute(modified));

  EXPECT_EQ(serial->committed, parallel.committed);
  EXPECT_TRUE(pdb.Merge().SameState(serial_db));
}

TEST_P(ParallelTest, ValidInsertCommitsOnAllNodeCounts) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"new\", \"ale\", \"guinness\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam());
}

TEST_P(ParallelTest, OrphanInsertAbortsOnAllNodeCounts) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"bad\", \"ale\", \"nowhere\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam());
}

TEST_P(ParallelTest, ReferencedBreweryDeleteAborts) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "delete(brewery, select[name = \"heineken\"](brewery));");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam());
}

TEST_P(ParallelTest, AggregateConstraintMatchesSerial) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint("capacity", "cnt(beer) <= 21"));
  Transaction ok_txn = ParseTxn(
      "insert(beer, {(\"one_more\", \"ale\", \"guinness\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction ok_mod, ics.Modify(ok_txn));
  ExpectParallelMatchesSerial(db_, ok_mod, GetParam());
  Transaction bad_txn = ParseTxn(
      "insert(beer, {(\"m1\", \"ale\", \"guinness\", 6.0), "
      "(\"m2\", \"ale\", \"guinness\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction bad_mod, ics.Modify(bad_txn));
  ExpectParallelMatchesSerial(db_, bad_mod, GetParam());
}

TEST_P(ParallelTest, CompensatingRuleMatchesSerial) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineRule(
      "fix_refint",
      "WHEN INS(beer) "
      "IF NOT forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name)) "
      "THEN temp := project[brewery](beer) - project[name](brewery); "
      "     insert(brewery, project[brewery, null, null](temp))"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"stray\", \"ale\", \"newplace\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam());
}

TEST_P(ParallelTest, ThreadedExecutionMatchesSerial) {
  core::IntegritySubsystem ics(&db_);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  Transaction txn = ParseTxn(
      "insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)});");
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  ExpectParallelMatchesSerial(db_, modified, GetParam(),
                              /*caller_only=*/false);
}

TEST_P(ParallelTest, UpdateOfOutOfRangeAttributeIsInvalidArgument) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db_, BeerSchemes(), GetParam()));
  // The parser resolves attribute names, so an out-of-range index can
  // only come from a hand-built statement.
  Transaction txn =
      ParseTxn("update(beer, alcohol > 0, alcohol := alcohol + 1);");
  ASSERT_EQ(txn.program.statements.size(), 1u);
  ASSERT_EQ(txn.program.statements[0].sets.size(), 1u);
  txn.program.statements[0].sets[0].attr = 4;  // beer has arity 4
  ThreadPool caller_pool(0);
  ParallelOptions options;
  options.pool = &caller_pool;
  ParallelExecutor exec(&pdb, options);
  auto r = exec.Execute(txn);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_TRUE(pdb.Merge().SameState(db_));
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ParallelTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelCostTest, ColocatedRefintCheckHasNoTransfers) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  for (int i = 0; i < 50; ++i) {
    AddBeer(&db, txmod::StrCat("b", i), "lager", "heineken", 5.0);
  }
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  algebra::AlgebraParser parser(&db.schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction txn,
      parser.ParseTransaction(
          "insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)});"));
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));

  TXMOD_ASSERT_OK_AND_ASSIGN(
      ParallelDatabase pdb,
      ParallelDatabase::Partition(db, BeerSchemes(), 4));
  ParallelExecutor exec(&pdb, ParallelOptions{});
  TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult r, exec.Execute(modified));
  EXPECT_TRUE(r.committed);
  // beer is fragmented on the FK attribute and brewery on its key: the
  // π-difference check is node-local. The only possible transfer is the
  // routing of the single inserted tuple.
  EXPECT_LE(r.stats.tuples_transferred(), 1u);
}

TEST(ParallelCostTest, SimulatedMakespanShrinksWithNodes) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  // Distinct FK values so hash fragmentation spreads the load; with a
  // single brewery every tuple would land on one node and no node count
  // could help (skew is real, but not what this test is about).
  for (int i = 0; i < 256; ++i) {
    AddBeer(&db, txmod::StrCat("b", i), "lager", txmod::StrCat("brew", i),
            5.0);
  }
  core::IntegritySubsystem ics(&db);
  // Full-relation domain check, forced by OptimizationLevel::kNone, so
  // the work scales with the relation size.
  core::SubsystemOptions so;
  so.optimization = core::OptimizationLevel::kNone;
  core::IntegritySubsystem full(&db, so);
  TXMOD_ASSERT_OK(full.DefineConstraint(
      "domain", "forall x (x in beer implies x.alcohol >= 0)"));
  algebra::AlgebraParser parser(&db.schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction txn,
      parser.ParseTransaction(
          "insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)});"));
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, full.Modify(txn));

  double previous = 1e300;
  for (int nodes : {1, 2, 4, 8}) {
    TXMOD_ASSERT_OK_AND_ASSIGN(
        ParallelDatabase pdb,
        ParallelDatabase::Partition(db, BeerSchemes(), nodes));
    ParallelExecutor exec(&pdb, ParallelOptions{});
    TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult r, exec.Execute(modified));
    EXPECT_TRUE(r.committed);
    EXPECT_LT(r.stats.simulated_us(), previous)
        << nodes << " nodes not faster";
    previous = r.stats.simulated_us();
  }
}

/// The simulated POOMA charges fold from deterministic per-shard and
/// per-producer tallies, so they must not depend on the pool: one modified
/// transaction — an equality-join check that redistributes, a
/// non-equality join check that broadcasts, and an aggregate check — is
/// charged identically on a caller-only pool and on 1, 2 and 4 workers,
/// for every steal seed and morsel size, and leaves identical states.
TEST(ParallelCostTest, SimulatedChargesAreIdenticalOnEveryPool) {
  Database db = MakeBeerDatabase();
  AddBrewery(&db, "heineken", "amsterdam", "nl");
  AddBrewery(&db, "guinness", "dublin", "ie");
  AddBrewery(&db, "lonely", "nowhere", "xx");
  for (int i = 0; i < 40; ++i) {
    AddBeer(&db, txmod::StrCat("beer", i), "lager",
            i % 2 == 0 ? "heineken" : "guinness", 4.0 + (i % 5));
  }
  core::IntegritySubsystem ics(&db);
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "refint",
      "forall x (x in beer implies exists y (y in brewery and "
      "x.brewery = y.name))"));
  TXMOD_ASSERT_OK(ics.DefineConstraint(
      "spread",
      "forall x (x in beer implies not exists y (y in beer and "
      "y.alcohol > x.alcohol + 50))"));
  TXMOD_ASSERT_OK(ics.DefineConstraint("capacity", "cnt(beer) <= 1000"));
  algebra::AlgebraParser parser(&db.schema());
  TXMOD_ASSERT_OK_AND_ASSIGN(
      Transaction txn,
      parser.ParseTransaction(
          "insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)}); "
          "delete(brewery, select[name = \"lonely\"](brewery));"));
  TXMOD_ASSERT_OK_AND_ASSIGN(Transaction modified, ics.Modify(txn));
  // beer on its key, not its foreign key: the refint join must
  // redistribute beer on brewery.
  const std::map<std::string, FragmentationScheme> schemes = {
      {"beer", FragmentationScheme{FragmentationKind::kHash, 0}},
      {"brewery", FragmentationScheme{FragmentationKind::kHash, 0}},
  };

  struct Run {
    std::string label;
    ParallelTxnResult result;
    Database final_state;
  };
  std::vector<Run> runs;
  ThreadPool caller_pool(0);
  for (std::size_t workers : {0u, 1u, 2u, 4u}) {  // 0 = caller-only pool
    for (uint64_t seed : {0ull, 424243ull}) {
      for (std::size_t morsel : {3u, 1024u}) {
        TXMOD_ASSERT_OK_AND_ASSIGN(
            ParallelDatabase pdb,
            ParallelDatabase::Partition(db, schemes, 4));
        ParallelOptions options;
        if (workers == 0) options.pool = &caller_pool;
        options.num_workers = workers;
        options.steal_seed = seed;
        options.morsel_tuples = morsel;
        ParallelExecutor exec(&pdb, options);
        TXMOD_ASSERT_OK_AND_ASSIGN(ParallelTxnResult r,
                                   exec.Execute(modified));
        runs.push_back(Run{txmod::StrCat("workers=", workers, " seed=", seed,
                                         " morsel=", morsel),
                           std::move(r), pdb.Merge()});
      }
    }
  }

  const Run& ref = runs.front();
  EXPECT_TRUE(ref.result.committed) << ref.result.abort_reason;
  std::set<std::string> labels;
  for (const PhaseTiming& p : ref.result.stats.phase_timings()) {
    labels.insert(p.label);
  }
  EXPECT_EQ(labels.count("redistribute-attr"), 1u);
  EXPECT_EQ(labels.count("broadcast"), 1u);
  EXPECT_EQ(labels.count("aggregate"), 1u);
  for (const Run& run : runs) {
    SCOPED_TRACE(run.label);
    const ParallelStats& a = ref.result.stats;
    const ParallelStats& b = run.result.stats;
    EXPECT_EQ(run.result.committed, ref.result.committed);
    EXPECT_EQ(b.simulated_us(), a.simulated_us());
    EXPECT_EQ(b.tuples_transferred(), a.tuples_transferred());
    ASSERT_EQ(b.phase_timings().size(), a.phase_timings().size());
    for (std::size_t i = 0; i < a.phase_timings().size(); ++i) {
      const PhaseTiming& pa = a.phase_timings()[i];
      const PhaseTiming& pb = b.phase_timings()[i];
      SCOPED_TRACE(txmod::StrCat("phase ", i, " ", pa.label));
      EXPECT_STREQ(pb.label, pa.label);
      EXPECT_EQ(pb.simulated_us, pa.simulated_us);
      EXPECT_EQ(pb.max_local, pa.max_local);
      EXPECT_EQ(pb.transferred, pa.transferred);
      EXPECT_EQ(pb.messages, pa.messages);
    }
    EXPECT_TRUE(run.final_state.SameState(ref.final_state));
  }
}

}  // namespace
}  // namespace txmod::parallel
