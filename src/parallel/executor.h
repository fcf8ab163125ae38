#ifndef TXMOD_PARALLEL_EXECUTOR_H_
#define TXMOD_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/algebra/physical_plan.h"
#include "src/algebra/statement.h"
#include "src/parallel/cost_model.h"
#include "src/parallel/parallel_db.h"
#include "src/parallel/thread_pool.h"

namespace txmod::parallel {

struct ParallelOptions {
  CostModel cost_model;
  /// Worker threads for the operator phases. 0 = the process-wide shared
  /// pool (ThreadPool::DefaultWorkerCount(): the TXMOD_PARALLEL_WORKERS
  /// env override, else hardware_concurrency). n > 0 = a pool of exactly
  /// n threads owned by this executor. Ignored when `pool` is set.
  std::size_t num_workers = 0;
  /// External pool override (not owned; must outlive the executor). A
  /// caller-only pool (ThreadPool(0)) runs every phase on the calling
  /// thread: the deterministic single-threaded configuration the oracle
  /// tests and the simulated benchmark series use.
  ThreadPool* pool = nullptr;
  /// Tuples per morsel: the unit of work the pool's queues hold and
  /// workers steal. Smaller = better balance, more scheduling overhead.
  std::size_t morsel_tuples = 1024;
  /// Perturbs each phase's steal order; the determinism tests sweep it
  /// to pin that steal interleaving cannot change final states.
  uint64_t steal_seed = 0;
  /// Bound on the executor's shape-keyed plan cache: statement shapes
  /// retained before LRU eviction. Statements compile once per *shape*
  /// per executor, not once per execution — reuse the executor across
  /// transactions to benefit. 0 disables caching (every statement
  /// compiles its own tree one-shot — the oracle tests' reference mode).
  std::size_t plan_cache_capacity =
      algebra::PlanCache::kDefaultShapeCapacity;
};

struct ParallelTxnResult {
  bool committed = false;
  std::string abort_reason;
  ParallelStats stats{1};
  /// Operator-kernel work counters, merged across nodes, plus this
  /// execution's plan-cache traffic. Comparable (minus the cache
  /// counters) with the serial engine's TxnResult::stats.
  algebra::EvalStats eval_stats;
};

/// Executes (modified) transactions against a fragmented database,
/// implementing the parallel constraint-enforcement strategies of [7] on
/// a real shared-nothing runtime.
///
/// Statements compile to the same physical plans as serial execution
/// (algebra::PhysicalPlan); this executor owns only the *distribution*
/// decisions — alignment tracking, redistribution, broadcast, cost-model
/// charging — while each fragment's tuples run through the shared
/// fragment-local operator kernel (algebra::NodeLocalKernel), so
/// operator semantics cannot diverge between the two engines:
///
///  * selections/projections run fragment-local;
///  * equality joins, semijoins, antijoins run fragment-local as *hash
///    joins* when operand partitioning already co-locates matching tuples
///    (the paper's fragmentation on key / foreign-key attributes), and
///    redistribute operands otherwise, with transfers charged to the cost
///    model; predicates without equality conjuncts broadcast the right
///    operand and fall back to nested loops;
///  * set operations run fragment-local by hashed membership after
///    whole-tuple alignment;
///  * aggregates compute node-local partials (algebra::AggPartial)
///    merged at a coordinator;
///  * updates are routed to the owning fragment; alarm statements abort
///    the whole transaction if any node reports violations.
///
/// Every phase runs on a persistent ThreadPool. Fragment-local phases are
/// morselized: shard inputs are sliced into fixed-size runs of tuple
/// pointers queued per shard, idle workers steal morsels from other
/// shards' queues, and per-morsel outputs merge into set-semantics
/// fragment results (so morsel boundaries, worker count, and steal order
/// cannot change final states). Redistribution and broadcast move tuples
/// through bounded ExchangeQueues — per-destination MPSC batch queues
/// with the consumers scheduled as phase followers. The cost model
/// charges each phase from deterministic per-shard and per-producer
/// tallies, so the simulated POOMA makespan is the same on any pool; a
/// caller-only pool (ThreadPool(0)) gives a fully single-threaded run.
/// ParallelStats reports measured wall-clock phase timings next to the
/// simulated numbers.
///
/// Statement expressions are compiled through a per-executor shape-keyed
/// plan cache (algebra::PlanCache): repeated statement shapes — the same
/// tree modulo literal constants — reuse one compiled plan under fresh
/// parameter bindings instead of recompiling per execution. Because the
/// distribution decisions (which key attributes to redistribute on,
/// partition vs broadcast) are derived from the cached plan's join-key
/// metadata, caching the operator tree caches them too.
///
/// Scope note (DESIGN.md §3): this is the enforcement substrate for the
/// E5 experiment, not a distributed transaction manager — commit is
/// single-site, there is no 2PC or replication, exactly as the paper's
/// single-transaction enforcement experiments assume.
class ParallelExecutor {
 public:
  ParallelExecutor(ParallelDatabase* db, ParallelOptions options = {});

  /// Runs the transaction on one txn::TxnContext per node, so each node's
  /// writes, old(), dplus and dminus live in that node's overlay levels:
  /// on alarm/abort every node rolls back, otherwise every node commits
  /// (folding its levels in place). The result carries the work
  /// statistics: the simulated POOMA makespan plus measured per-phase
  /// wall clock.
  Result<ParallelTxnResult> Execute(const algebra::Transaction& txn);

  /// This executor's plan cache (diagnostics: hit/miss/eviction totals).
  const algebra::PlanCache& plan_cache() const { return plan_cache_; }

 private:
  class Impl;
  ParallelDatabase* db_;
  ParallelOptions options_;
  algebra::PlanCache plan_cache_;
  std::unique_ptr<ThreadPool> owned_pool_;  // when num_workers > 0
  ThreadPool* pool_ = nullptr;              // never null once constructed
};

}  // namespace txmod::parallel

#endif  // TXMOD_PARALLEL_EXECUTOR_H_
