// E6 — static compilation vs dynamic optimize+translate (Section 6.2).
//
// The paper's operational argument: integrity rules should be optimized
// and translated once, at definition time, into integrity programs
// (Definition 6.3); the literal Algorithm 5.1 re-runs TrOptRS on every
// modification. This bench measures ModT itself (no execution) for both
// paths, sweeping the rule-catalog size and the transaction length.
// Expected shape: static wins, and the gap grows with the rule count.

#include "benchmark/benchmark.h"
#include "bench/workload.h"
#include "src/core/modifier.h"

namespace txmod::bench {
namespace {

/// A catalog of `n` domain rules on fk_rel (every one triggered by the
/// insert workload, the worst case for modification cost).
void DefineRules(core::IntegritySubsystem* ics, int n) {
  for (int i = 0; i < n; ++i) {
    TXMOD_BENCH_CHECK_OK(ics->DefineConstraint(
        StrCat("amount_ge_", i),
        StrCat("forall x (x in fk_rel implies x.amount >= ", -1 - i, ")")));
  }
}

algebra::Transaction MakeTxn(int statements) {
  algebra::Transaction txn;
  for (int i = 0; i < statements; ++i) {
    txn.program.statements.push_back(algebra::Statement::Insert(
        "fk_rel",
        algebra::RelExpr::Literal(
            {Tuple({Value::Int(1'000'000 + i), Value::String("k0"),
                    Value::Double(2.5)})},
            3)));
  }
  return txn;
}

void BM_ModifyStatic(benchmark::State& state) {
  Database db = MakeKeyFkDatabase(10, 10);
  core::IntegritySubsystem ics(&db);
  DefineRules(&ics, static_cast<int>(state.range(0)));
  const algebra::Transaction txn = MakeTxn(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    core::ModifyStats stats;
    auto modified = ics.Modify(txn, &stats);
    TXMOD_BENCH_CHECK_OK(modified.status());
    benchmark::DoNotOptimize(modified);
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
  state.counters["stmts"] = static_cast<double>(state.range(1));
}

void BM_ModifyDynamic(benchmark::State& state) {
  Database db = MakeKeyFkDatabase(10, 10);
  core::IntegritySubsystem ics(&db);
  DefineRules(&ics, static_cast<int>(state.range(0)));
  const algebra::Transaction txn = MakeTxn(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto modified = core::ModifyTransactionDynamic(
        txn, ics.rules(), db.schema(),
        core::OptimizationLevel::kDifferential);
    TXMOD_BENCH_CHECK_OK(modified.status());
    benchmark::DoNotOptimize(modified);
  }
  state.counters["rules"] = static_cast<double>(state.range(0));
  state.counters["stmts"] = static_cast<double>(state.range(1));
}

BENCHMARK(BM_ModifyStatic)
    ->ArgsProduct({{1, 4, 16, 64}, {1, 8, 64}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ModifyDynamic)
    ->ArgsProduct({{1, 4, 16, 64}, {1, 8, 64}})
    ->Unit(benchmark::kMicrosecond);

// Detection latency ablation: immediate vs deferred check placement on a
// violating transaction (first statement offends, many follow). Deferred
// placement (the paper's ModP) executes the whole batch before the check
// aborts it; immediate placement aborts right after the first statement.
void RunDetectionLatency(benchmark::State& state, bool immediate) {
  const int tail_statements = 64;
  Database db = MakeKeyFkDatabase(1000, 10000);
  core::IntegritySubsystem ics(&db);
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint(
      "domain", "forall x (x in fk_rel implies x.amount >= 0)"));
  algebra::Transaction txn;
  txn.program.statements.push_back(algebra::Statement::Insert(
      "fk_rel",
      algebra::RelExpr::Literal(
          {Tuple({Value::Int(999'999), Value::String("k0"),
                  Value::Double(-1.0)})},
          3)));
  for (int i = 0; i < tail_statements; ++i) {
    std::vector<Tuple> batch;
    for (int j = 0; j < 50; ++j) {
      batch.push_back(Tuple({Value::Int(1'000'000 + i * 50 + j),
                             Value::String("k1"), Value::Double(1.0)}));
    }
    txn.program.statements.push_back(algebra::Statement::Insert(
        "fk_rel", algebra::RelExpr::Literal(std::move(batch), 3)));
  }
  Result<algebra::Transaction> modified =
      immediate ? core::ModifyTransactionImmediate(txn, ics.compiled())
                : ics.Modify(txn);
  TXMOD_BENCH_CHECK_OK(modified.status());
  for (auto _ : state) {
    auto result = txn::ExecuteTransaction(*modified, &db);
    TXMOD_BENCH_CHECK_OK(result.status());
    if (result->committed) {
      state.SkipWithError("violation not detected");
      return;
    }
  }
}
void BM_DetectionDeferred(benchmark::State& state) {
  RunDetectionLatency(state, /*immediate=*/false);
}
void BM_DetectionImmediate(benchmark::State& state) {
  RunDetectionLatency(state, /*immediate=*/true);
}
BENCHMARK(BM_DetectionDeferred)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DetectionImmediate)->Unit(benchmark::kMicrosecond);

// The repeated-differential-check workload: the steady-state cost the
// paper's whole argument rests on. Every iteration is one complete
// transaction round: modify the user's insert batch (appends the compiled
// differential checks), then execute it — inserts plus the residual
// semijoin/antijoin tests of dplus(fk_rel) against key_rel. The check
// probes the same base relation transaction after transaction, which is
// exactly what the relation-level equi-key index accelerates.
void BM_DifferentialCommit(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  Database db = MakeKeyFkDatabase(keys, keys * 10);
  core::IntegritySubsystem ics(&db);
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("refint", RefIntConstraint()));
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("domain", DomainConstraint()));
  int id_base = 10'000'000;
  for (auto _ : state) {
    const algebra::Transaction txn = MakeFkInsertBatch(batch, keys, id_base);
    id_base += batch;
    auto modified = ics.Modify(txn);
    TXMOD_BENCH_CHECK_OK(modified.status());
    auto result = txn::ExecuteTransaction(*modified, &db);
    TXMOD_BENCH_CHECK_OK(result.status());
    if (!result->committed) {
      state.SkipWithError("valid batch unexpectedly aborted");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["key_tuples"] = static_cast<double>(keys);
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_DifferentialCommit)
    ->ArgsProduct({{1000, 5000}, {10, 100, 1000}})
    ->Unit(benchmark::kMicrosecond);

// The serial engine on a mixed stream: per iteration one valid fk insert
// batch, the same batch plus one dangling reference (aborts and rolls
// back), and a key swap that writes both relations (delete an
// unreferenced key, insert a fresh one and an fk tuple referencing a
// live key). Neither the abort nor the two-relation commit may cost later
// commits their in-place fold: both relations must stay flat.
algebra::Transaction MakeKeySwap(int swap, int fk_id) {
  auto key = [](int i) {
    return Tuple({Value::String(StrCat("x", i)), Value::String("payload")});
  };
  algebra::Transaction txn;
  txn.program.statements.push_back(algebra::Statement::Delete(
      "key_rel", algebra::RelExpr::Literal({key(swap)}, 2)));
  txn.program.statements.push_back(algebra::Statement::Insert(
      "key_rel", algebra::RelExpr::Literal({key(swap + 1)}, 2)));
  txn.program.statements.push_back(algebra::Statement::Insert(
      "fk_rel", algebra::RelExpr::Literal(
                    {Tuple({Value::Int(fk_id), Value::String("k0"),
                            Value::Double(2.5)})},
                    3)));
  return txn;
}

void BM_SerialMixedCommit(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  Database db = MakeKeyFkDatabase(keys, keys * 10);
  AddUnreferencedKeys(&db, 1);  // "x0", swapped for "x1", "x2", ...
  core::IntegritySubsystem ics(&db);
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("refint", RefIntConstraint()));
  TXMOD_BENCH_CHECK_OK(ics.DefineConstraint("domain", DomainConstraint()));
  int id_base = 10'000'000;
  int swap = 0;
  auto run = [&](const algebra::Transaction& txn) {
    auto modified = ics.Modify(txn);
    TXMOD_BENCH_CHECK_OK(modified.status());
    auto result = txn::ExecuteTransaction(*modified, &db);
    TXMOD_BENCH_CHECK_OK(result.status());
    return result->committed;
  };
  for (auto _ : state) {
    const bool valid = run(MakeFkInsertBatch(batch, keys, id_base));
    algebra::Transaction dangling =
        MakeFkInsertBatch(batch, keys, id_base + batch);
    dangling.program.statements.push_back(algebra::Statement::Insert(
        "fk_rel", algebra::RelExpr::Literal(
                      {Tuple({Value::Int(id_base + 2 * batch),
                              Value::String("missing"), Value::Double(2.5)})},
                      3)));
    const bool dangled = run(dangling);
    const bool swapped = run(MakeKeySwap(swap, id_base + 2 * batch + 1));
    id_base += 2 * batch + 2;
    ++swap;
    if (!valid || dangled || !swapped) {
      state.SkipWithError("unexpected transaction outcome");
      return;
    }
  }
  if ((*db.Find("key_rel"))->overlay_depth() != 0 ||
      (*db.Find("fk_rel"))->overlay_depth() != 0) {
    state.SkipWithError("serial commits stopped folding in place");
  }
  state.SetItemsProcessed(state.iterations() * 3);
  state.counters["key_tuples"] = static_cast<double>(keys);
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_SerialMixedCommit)
    ->ArgsProduct({{1000, 5000}, {10, 100, 1000}})
    ->Unit(benchmark::kMicrosecond);

// Rule definition cost (parse + analyze + compile + graph validation) —
// the price paid once, at definition time, to make the static path cheap.
void BM_DefineRule(benchmark::State& state) {
  Database db = MakeKeyFkDatabase(10, 10);
  int i = 0;
  core::IntegritySubsystem ics(&db);
  for (auto _ : state) {
    TXMOD_BENCH_CHECK_OK(ics.DefineConstraint(
        StrCat("r", i), RefIntConstraint()));
    state.PauseTiming();
    TXMOD_BENCH_CHECK_OK(ics.DropRule(StrCat("r", i)));
    ++i;
    state.ResumeTiming();
  }
}
BENCHMARK(BM_DefineRule)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace txmod::bench

TXMOD_BENCH_MAIN()
