#include "gtest/gtest.h"
#include "src/algebra/parser.h"
#include "src/txn/executor.h"
#include "tests/test_util.h"

namespace txmod::txn {
namespace {

using algebra::AlgebraParser;
using algebra::RelRefKind;
using algebra::Transaction;
using txmod::testing::AddBeer;
using txmod::testing::AddBrewery;
using txmod::testing::MakeBeerDatabase;

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeBeerDatabase();
    AddBeer(&db_, "pils", "lager", "heineken", 5.0);
    AddBrewery(&db_, "heineken", "amsterdam", "nl");
  }

  Result<TxnResult> Run(const std::string& text) {
    AlgebraParser parser(&db_.schema());
    TXMOD_ASSIGN_OR_RETURN(Transaction txn, parser.ParseTransaction(text));
    return ExecuteTransaction(txn, &db_);
  }

  Database db_;
};

TEST_F(TxnTest, CommitAdvancesLogicalTime) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("begin insert(beer, {(\"new\", \"ale\", \"heineken\", 6.0)}); end"));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(db_.logical_time(), 1u);
  EXPECT_EQ((*db_.Find("beer"))->size(), 2u);
  EXPECT_EQ(r.tuples_inserted, 1u);
}

TEST_F(TxnTest, InsertCoercesIntsIntoDoubleColumns) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("insert(beer, {(\"new\", \"ale\", \"heineken\", 6)});"));
  EXPECT_TRUE(r.committed);
  const Relation* beer = *db_.Find("beer");
  EXPECT_TRUE(beer->Contains(
      Tuple({Value::String("new"), Value::String("ale"),
             Value::String("heineken"), Value::Double(6.0)})));
}

TEST_F(TxnTest, DeleteRemovesMatchingTuples) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r, Run("delete(beer, select[name = \"pils\"](beer));"));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ((*db_.Find("beer"))->size(), 0u);
  EXPECT_EQ(r.tuples_deleted, 1u);
}

TEST_F(TxnTest, UpdateHasDeleteInsertSemantics) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("update(beer, name = \"pils\", alcohol := alcohol + 1);"));
  EXPECT_TRUE(r.committed);
  const Relation* beer = *db_.Find("beer");
  ASSERT_EQ(beer->size(), 1u);
  EXPECT_DOUBLE_EQ(beer->SortedTuples()[0].at(3).as_double(), 6.0);
  EXPECT_EQ(r.tuples_inserted, 1u);
  EXPECT_EQ(r.tuples_deleted, 1u);
}

TEST_F(TxnTest, AlarmOnNonEmptyAborts) {
  const uint64_t t0 = db_.logical_time();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("insert(beer, {(\"bad\", \"ale\", \"x\", -1.0)});"
          "alarm(select[alcohol < 0](beer), \"negative alcohol\");"));
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.abort_reason, "negative alcohol");
  EXPECT_EQ(r.aborting_statement, 1);
  // Atomicity: the insert was rolled back, logical time unchanged.
  EXPECT_EQ((*db_.Find("beer"))->size(), 1u);
  EXPECT_EQ(db_.logical_time(), t0);
}

TEST_F(TxnTest, AlarmOnEmptyHasNoEffect) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r, Run("alarm(select[alcohol < 0](beer));"));
  EXPECT_TRUE(r.committed);
}

TEST_F(TxnTest, AbortStatementRestoresEverything) {
  Database before = db_.Clone();
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("insert(beer, {(\"a\", \"b\", \"c\", 1.0)});"
          "delete(brewery, brewery);"
          "update(beer, alcohol > 0, alcohol := 0.0);"
          "abort(\"never mind\");"));
  EXPECT_FALSE(r.committed);
  EXPECT_TRUE(db_.SameState(before));
}

TEST_F(TxnTest, TemporariesAreTransactionLocal) {
  TXMOD_ASSERT_OK_AND_ASSIGN(
      TxnResult r,
      Run("t := project[name](beer); insert(brewery, "
          "project[name, null, null](t));"));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ((*db_.Find("brewery"))->size(), 2u);
  EXPECT_FALSE(db_.Contains("t"));
}

TEST_F(TxnTest, MalformedProgramErrorsAndRollsBack) {
  Database before = db_.Clone();
  AlgebraParser parser(&db_.schema());
  // Build a program that inserts then references a missing temp (parser
  // would reject it, so build the AST by hand).
  Transaction txn;
  txn.program.statements.push_back(algebra::Statement::Insert(
      "beer", algebra::RelExpr::Literal(
                  {Tuple({Value::String("a"), Value::String("b"),
                          Value::String("c"), Value::Double(1.0)})},
                  4)));
  txn.program.statements.push_back(algebra::Statement::Assign(
      "t", algebra::RelExpr::Temp("missing")));
  Result<TxnResult> r = ExecuteTransaction(txn, &db_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(db_.SameState(before));
}

// --- differential bookkeeping (the paper's auxiliary relations) -----------

class DifferentialTest : public TxnTest {
 protected:
  /// |dplus(rel)| and |dminus(rel)| as the integrity checks see them.
  static std::size_t DeltaSize(const TxnContext& ctx, RelRefKind kind,
                               const std::string& rel) {
    Result<const Relation*> delta = ctx.Resolve(kind, rel);
    EXPECT_TRUE(delta.ok()) << delta.status().ToString();
    return delta.ok() ? (*delta)->size() : ~std::size_t{0};
  }
  static std::size_t PlusSize(const TxnContext& ctx, const std::string& rel) {
    return DeltaSize(ctx, RelRefKind::kDeltaPlus, rel);
  }
  static std::size_t MinusSize(const TxnContext& ctx,
                               const std::string& rel) {
    return DeltaSize(ctx, RelRefKind::kDeltaMinus, rel);
  }
};

TEST_F(DifferentialTest, InsertPopulatesDeltaPlus) {
  TxnContext ctx(&db_);
  TXMOD_ASSERT_OK_AND_ASSIGN(
      bool inserted,
      ctx.InsertTuple("brewery", Tuple({Value::String("new"), Value::Null(),
                                        Value::Null()})));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(PlusSize(ctx, "brewery"), 1u);
  EXPECT_EQ(MinusSize(ctx, "brewery"), 0u);
}

TEST_F(DifferentialTest, DeleteThenReinsertNetsOut) {
  TxnContext ctx(&db_);
  const Tuple heineken({Value::String("heineken"), Value::String("amsterdam"),
                        Value::String("nl")});
  TXMOD_ASSERT_OK_AND_ASSIGN(bool deleted,
                             ctx.DeleteTuple("brewery", heineken));
  EXPECT_TRUE(deleted);
  EXPECT_EQ(MinusSize(ctx, "brewery"), 1u);
  TXMOD_ASSERT_OK_AND_ASSIGN(bool inserted,
                             ctx.InsertTuple("brewery", heineken));
  EXPECT_TRUE(inserted);
  // Net change is zero: R_pre = (R \ plus) ∪ minus must hold.
  EXPECT_EQ(PlusSize(ctx, "brewery"), 0u);
  EXPECT_EQ(MinusSize(ctx, "brewery"), 0u);
  for (const auto& [name, level] : ctx.WrittenLevels()) {
    EXPECT_EQ(level->delta_weight(), 0u) << name;
  }
}

TEST_F(DifferentialTest, WriteFootprintDedupesRepeatedAttempts) {
  // A batch re-touching the same tuple N times is ONE tuple-granularity
  // read: the footprint stays a single entry (no per-attempt growth or
  // tuple copies), and no-op attempts still land in it.
  TxnContext ctx(&db_);
  ctx.EnableConflictTracking();
  const Tuple t({Value::String("x"), Value::Null(), Value::Null()});
  for (int i = 0; i < 8; ++i) {
    TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", t).status());
    TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", t).status());
  }
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", t).status());
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", t).status());  // no-op repeat
  auto it = ctx.WriteFootprint().find("brewery");
  ASSERT_NE(it, ctx.WriteFootprint().end());
  EXPECT_EQ(it->second.size(), 1u);
  EXPECT_TRUE(it->second.Contains(t));
}

TEST_F(DifferentialTest, InsertThenDeleteNetsOut) {
  TxnContext ctx(&db_);
  const Tuple t({Value::String("x"), Value::Null(), Value::Null()});
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", t).status());
  TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", t).status());
  EXPECT_EQ(PlusSize(ctx, "brewery"), 0u);
  EXPECT_EQ(MinusSize(ctx, "brewery"), 0u);
}

TEST_F(DifferentialTest, OldViewIsPreTransactionState) {
  TxnContext ctx(&db_);
  const Tuple heineken({Value::String("heineken"), Value::String("amsterdam"),
                        Value::String("nl")});
  const Tuple fresh({Value::String("fresh"), Value::Null(), Value::Null()});
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", fresh).status());
  TXMOD_ASSERT_OK(ctx.DeleteTuple("brewery", heineken).status());
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* old_view,
                             ctx.Resolve(RelRefKind::kOld, "brewery"));
  EXPECT_EQ(old_view->size(), 1u);
  EXPECT_TRUE(old_view->Contains(heineken));
  EXPECT_FALSE(old_view->Contains(fresh));
  // The current state is the opposite.
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* now,
                             ctx.Resolve(RelRefKind::kBase, "brewery"));
  EXPECT_TRUE(now->Contains(fresh));
  EXPECT_FALSE(now->Contains(heineken));
}

TEST_F(DifferentialTest, OldViewComputedEarlyStaysCorrect) {
  TxnContext ctx(&db_);
  // Materialize old(brewery) before any change...
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* old_before,
                             ctx.Resolve(RelRefKind::kOld, "brewery"));
  EXPECT_EQ(old_before->size(), 1u);
  // ...then mutate; the old view must still show the pre-state.
  TXMOD_ASSERT_OK(
      ctx.InsertTuple("brewery",
                      Tuple({Value::String("x"), Value::Null(), Value::Null()}))
          .status());
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* old_after,
                             ctx.Resolve(RelRefKind::kOld, "brewery"));
  EXPECT_EQ(old_after->size(), 1u);
}

TEST_F(DifferentialTest, DeltaRefsOfUntouchedRelationAreEmpty) {
  TxnContext ctx(&db_);
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* plus,
                             ctx.Resolve(RelRefKind::kDeltaPlus, "beer"));
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* minus,
                             ctx.Resolve(RelRefKind::kDeltaMinus, "beer"));
  EXPECT_TRUE(plus->empty());
  EXPECT_TRUE(minus->empty());
}

TEST_F(DifferentialTest, OneLevelHoldsTheWritesAndOldIsThePreState) {
  // The one-copy pin: after a one-tuple write to a 10^4-tuple relation,
  // old(R) is the pre-state's own relation object (no copy of R), and
  // dplus(R)/dminus(R) are the storage of the transaction's single
  // overlay level over it (no second copy of the written tuple).
  for (int i = 0; i < 10000; ++i) {
    AddBeer(&db_, "beer" + std::to_string(i), "lager", "heineken", 4.0);
  }
  const Relation* pre_beer = *db_.Find("beer");
  TxnContext ctx(&db_);
  CowStats::Reset();
  const Tuple fresh({Value::String("fresh"), Value::String("ale"),
                     Value::String("heineken"), Value::Double(6.0)});
  TXMOD_ASSERT_OK(ctx.InsertTuple("beer", fresh).status());

  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* now,
                             ctx.Resolve(RelRefKind::kBase, "beer"));
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* old_view,
                             ctx.Resolve(RelRefKind::kOld, "beer"));
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* plus,
                             ctx.Resolve(RelRefKind::kDeltaPlus, "beer"));
  TXMOD_ASSERT_OK_AND_ASSIGN(const Relation* minus,
                             ctx.Resolve(RelRefKind::kDeltaMinus, "beer"));
  EXPECT_EQ(old_view, pre_beer);
  EXPECT_EQ(old_view->size(), 10001u);  // 10^4 + the fixture's pils
  EXPECT_EQ(now->base(), pre_beer);
  EXPECT_EQ(now->overlay_depth(), pre_beer->overlay_depth() + 1);
  EXPECT_EQ(plus, now->plus());
  EXPECT_EQ(minus, now->minus());
  EXPECT_EQ(plus->size(), 1u);
  EXPECT_TRUE(plus->Contains(fresh));
  EXPECT_TRUE(minus->empty());
  EXPECT_EQ(now->size(), 10002u);
  EXPECT_EQ(CowStats::overlays_created.load(), 1u);
  EXPECT_EQ(CowStats::overlay_collapses.load(), 0u);

  // The database owned beer alone, so commit folds the level back into
  // the pre-state object in place: no chain growth, no copy of R.
  ctx.Commit();
  EXPECT_TRUE(ctx.WrittenLevels().empty());
  EXPECT_EQ(*db_.Find("beer"), pre_beer);
  EXPECT_FALSE(pre_beer->is_overlay());
  EXPECT_TRUE(pre_beer->Contains(fresh));
  EXPECT_EQ(CowStats::overlay_collapses.load(), 0u);
  EXPECT_EQ(db_.logical_time(), 1u);
}

TEST_F(DifferentialTest, AbortsAndOtherRelationsKeepTheFold) {
  // Ownership survives every way a transaction ends: after a commit of
  // one relation and an aborted write of another, the next commit of
  // either still folds into the same, flat pre-state object.
  const Relation* pre_beer = *db_.Find("beer");
  const Relation* pre_brewery = *db_.Find("brewery");
  const Tuple ale({Value::String("ale"), Value::String("ale"),
                   Value::String("heineken"), Value::Double(5.0)});
  const Tuple plzen({Value::String("plzen"), Value::Null(), Value::Null()});
  {
    TxnContext ctx(&db_);
    TXMOD_ASSERT_OK(ctx.InsertTuple("beer", ale).status());
    ctx.Commit();
  }
  {
    TxnContext ctx(&db_);
    TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", plzen).status());
    ctx.Rollback();
  }
  {
    TxnContext ctx(&db_);
    TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", plzen).status());
    ctx.Commit();
  }
  {
    TxnContext ctx(&db_);
    TXMOD_ASSERT_OK(ctx.DeleteTuple("beer", ale).status());
    ctx.Commit();
  }
  EXPECT_EQ(*db_.Find("beer"), pre_beer);
  EXPECT_EQ(*db_.Find("brewery"), pre_brewery);
  EXPECT_EQ(pre_beer->overlay_depth(), 0u);
  EXPECT_EQ(pre_brewery->overlay_depth(), 0u);
  EXPECT_TRUE(pre_brewery->Contains(plzen));
  EXPECT_FALSE(pre_beer->Contains(ale));
  EXPECT_TRUE(db_.Owns("beer"));
  EXPECT_TRUE(db_.Owns("brewery"));
}

TEST_F(DifferentialTest, CommitFoldsOnlyAnUnsharedPreState) {
  const Tuple fresh({Value::String("fresh"), Value::Null(), Value::Null()});
  const Tuple later({Value::String("later"), Value::Null(), Value::Null()});
  const Tuple early({Value::String("early"), Value::Null(), Value::Null()});
  const Tuple ale({Value::String("ale"), Value::String("ale"),
                   Value::String("heineken"), Value::Double(5.0)});
  // A copy taken after the first write shares every pre-state, including
  // those of relations the transaction writes only later: the commit must
  // fold none of them in place, nor layer anything new to compact.
  {
    TxnContext ctx(&db_);
    TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", early).status());
    Database mid = db_.Clone();
    CowStats::Reset();
    TXMOD_ASSERT_OK(ctx.InsertTuple("beer", ale).status());
    ctx.Commit();
    EXPECT_EQ(CowStats::overlays_created.load(), 1u);  // the beer level
    EXPECT_FALSE((*mid.Find("beer"))->Contains(ale));
    EXPECT_EQ((*mid.Find("beer"))->size(), 1u);
    EXPECT_TRUE((*mid.Find("brewery"))->Contains(early));
    EXPECT_TRUE((*db_.Find("beer"))->Contains(ale));
    EXPECT_TRUE((*db_.Find("beer"))->is_overlay());
  }

  // A snapshot taken before the transaction shares the pre-state: the
  // commit must leave it alone and keep the written level instead.
  Database before = db_.Clone();
  {
    TxnContext ctx(&db_);
    TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", fresh).status());
    ctx.Commit();
  }
  EXPECT_TRUE((*db_.Find("brewery"))->Contains(fresh));
  EXPECT_TRUE((*db_.Find("brewery"))->is_overlay());
  EXPECT_FALSE((*before.Find("brewery"))->Contains(fresh));

  // A copy taken mid-transaction shares the level itself: no fold either,
  // and the copy keeps exactly what it saw.
  TxnContext ctx(&db_);
  TXMOD_ASSERT_OK(ctx.InsertTuple("brewery", later).status());
  Database mid = db_.Clone();
  ctx.Commit();
  EXPECT_TRUE((*mid.Find("brewery"))->Contains(later));
  EXPECT_TRUE((*mid.Find("brewery"))->Contains(fresh));
  EXPECT_TRUE((*db_.Find("brewery"))->Contains(later));
  EXPECT_TRUE(db_.SameState(mid));
}

TEST_F(DifferentialTest, RollbackRestoresState) {
  Database before = db_.Clone();
  const Relation* pre_brewery = *db_.Find("brewery");
  TxnContext ctx(&db_);
  TXMOD_ASSERT_OK(
      ctx.InsertTuple("brewery",
                      Tuple({Value::String("x"), Value::Null(), Value::Null()}))
          .status());
  TXMOD_ASSERT_OK(
      ctx.DeleteTuple("brewery",
                      Tuple({Value::String("heineken"),
                             Value::String("amsterdam"), Value::String("nl")}))
          .status());
  ctx.Rollback();
  EXPECT_TRUE(db_.SameState(before));
  // The pre-state itself is back, not a reverse-applied copy of it.
  EXPECT_EQ(*db_.Find("brewery"), pre_brewery);
}

}  // namespace
}  // namespace txmod::txn
