#ifndef TXMOD_TXN_TXN_CONTEXT_H_
#define TXMOD_TXN_TXN_CONTEXT_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/eval_context.h"
#include "src/algebra/physical_plan.h"
#include "src/common/result.h"
#include "src/relational/database.h"

namespace txmod::parallel {
class ThreadPool;
}  // namespace txmod::parallel

namespace txmod::txn {

/// Transaction-local execution state over a Database: the intermediate
/// states D^{t,i} of Definition 2.6. At the transaction's first write the
/// context clones its database (O(#relations)); that clone is the
/// pre-transaction state D^t. Each relation the transaction then writes
/// gets exactly one private overlay level over its D^t state
/// (Database::FindMutable), so the transaction's writes exist once, in
/// that level, and the paper's relations are read straight from it:
///
///  * R is the level itself (the current intermediate state);
///  * old(R) is R's state in the pre-state clone — no copy;
///  * dplus(R) / dminus(R) (Section 4.1's auxiliary relations, which
///    also drive the differential rule checks of Section 5.2.1) are the
///    level's own plus()/minus() storage — no copy;
///  * rollback (Section 2.2: T(D) = D) assigns the pre-state back.
///
/// Until the first write the database *is* the pre-state. Assignments'
/// temporaries live in the context.
class TxnContext : public algebra::EvalContext {
 public:
  explicit TxnContext(Database* db);

  /// EvalContext: resolves base relations against the current intermediate
  /// state, kTemp against the transaction-local environment, kOld against
  /// the pre-state, kDeltaPlus / kDeltaMinus against the transaction's
  /// overlay levels (an empty relation for one it has not written). Never
  /// copies or caches anything, so concurrent resolution is safe while no
  /// statement writes. Under conflict tracking, resolving kBase or kOld
  /// records the relation in BaseReads (the optimistic read set);
  /// ResolveSchemaOnly resolves the same relation but records nothing —
  /// the evaluator uses it where only the result shape is needed (e.g. the
  /// base side of a join whose differential side is empty), keeping the
  /// read set free of false conflicts.
  Result<const Relation*> Resolve(algebra::RelRefKind kind,
                                  const std::string& name) const override;
  Result<const Relation*> ResolveSchemaOnly(
      algebra::RelRefKind kind, const std::string& name) const override;

  Database* database() { return db_; }
  const Database& database() const { return *db_; }

  /// Optional per-subsystem plan cache. Statement execution consults its
  /// pinned (identity) side first — integrity-check expressions are
  /// pre-compiled there at rule-definition time — then its shaped side,
  /// which caches ad-hoc statement plans by structural fingerprint so
  /// repeated statement shapes (same tree modulo literal constants) skip
  /// recompilation. Non-const: shaped lookups compile-on-miss and touch
  /// LRU state.
  void set_plan_cache(algebra::PlanCache* cache) { plan_cache_ = cache; }
  algebra::PlanCache* plan_cache() const { return plan_cache_; }

  /// Optional worker pool for integrity-check evaluation: when set, the
  /// statement executor evaluates runs of consecutive alarm statements
  /// (the shape TransC + the transaction modifier emit — independent,
  /// read-only rule checks) concurrently on this pool instead of one by
  /// one. Null = serial checks (the default; TxnManager wires a pool in
  /// when TxnManagerOptions::parallel_check_workers > 0).
  void set_check_pool(parallel::ThreadPool* pool) { check_pool_ = pool; }
  parallel::ThreadPool* check_pool() const { return check_pool_; }

  /// Resolve without touching the conflict read set — the data access of
  /// a concurrent check task, whose reads are recorded separately (in
  /// statement order, only up to an aborting alarm) via RecordBaseRead so
  /// the optimistic footprint stays identical to serial execution.
  /// Thread-safe against other resolutions (it only reads).
  Result<const Relation*> ResolveUnrecorded(algebra::RelRefKind kind,
                                            const std::string& name) const;

  /// Records one base-relation read into the optimistic read set, as if
  /// Resolve(kBase/kOld, name) had run under conflict tracking.
  void RecordBaseRead(const std::string& name) const {
    if (track_conflicts_) base_reads_.insert(name);
  }

  /// Stores (replaces) a temporary relation.
  void SetTemp(const std::string& name, Relation value);

  /// Inserts one schema-checked, coerced tuple into base relation `rel`
  /// (into the transaction's level of it). Returns true when the tuple
  /// was new.
  Result<bool> InsertTuple(const std::string& rel, Tuple tuple);

  /// Deletes one tuple; returns true when the tuple was present.
  Result<bool> DeleteTuple(const std::string& rel, const Tuple& tuple);

  /// Every relation the transaction has written, in name order, with its
  /// overlay level: level->plus() is dplus(R), level->minus() is
  /// dminus(R). A level whose changes netted out has both empty. This is
  /// the commit-time write set.
  std::vector<std::pair<std::string, const Relation*>> WrittenLevels() const;

  // -------------------------------------------------------------------
  // Conflict footprint for optimistic (snapshot) execution. A session
  // executing against a snapshot records what it observed of the
  // committed state; the transaction manager validates these against
  // concurrently committed writes (first-committer-wins). Recording is
  // OPT-IN (EnableConflictTracking, called by TxnSession): the serial
  // single-session engine never consumes these sets and must not pay
  // for building them.
  // -------------------------------------------------------------------

  /// Turns on BaseReads/WriteFootprint recording for this context.
  void EnableConflictTracking() { track_conflicts_ = true; }
  bool conflict_tracking() const { return track_conflicts_; }

  /// Base relations resolved during evaluation (kBase and kOld
  /// references): the relation-granularity read set. A rule check
  /// probing key_rel lands key_rel here; dplus/dminus and temporaries
  /// are transaction-local and never recorded.
  const std::set<std::string>& BaseReads() const { return base_reads_; }

  /// Every tuple this transaction attempted to insert or delete, per
  /// relation — *including* no-ops (inserting a present tuple, deleting
  /// an absent one). No-ops are reads of the committed state at tuple
  /// granularity: whether they were no-ops depends on it, so commit
  /// validation must see them even though they leave no differential.
  /// Identical attempts are deduped on record: a batch re-touching the
  /// same tuple N times costs one entry and no repeated tuple copies.
  const std::map<std::string, Relation>& WriteFootprint() const {
    return footprint_;
  }

  /// Undoes every change by assigning the pre-state back. Temporaries are
  /// dropped. BaseReads and WriteFootprint survive: an aborted
  /// transaction's outcome (the abort) was still decided by what it read,
  /// and the transaction manager validates that against concurrent
  /// commits too.
  void Rollback();

  /// Installs D^{t+1} (Definition 2.6's end bracket): a written level
  /// whose pre-state only this database held is folded back into it in
  /// place (Database::FoldLevel, O(|delta|)); every other written level
  /// it owns runs the manager's policy (Relation::CompactOverlay). Drops
  /// transaction-local state and advances the logical time.
  void Commit();

 private:
  /// The transaction's level of `rel`, taking the pre-state snapshot
  /// first when this is the transaction's first write.
  Result<Relation*> MutableLevel(const std::string& rel,
                                 const Relation* current);
  /// The transaction's level of `name`, or null when it has not written
  /// the relation.
  const Relation* Level(const std::string& name) const;
  /// True when no copy of the database was taken since pre_ (each written
  /// level is owned and sits on its pre-state): only pre_ shares foldable_.
  bool PreStateUnshared(
      const std::vector<std::pair<std::string, const Relation*>>& levels)
      const;
  void RecordFootprint(const std::string& rel, const Relation& target,
                       const Tuple& t);

  Database* db_;
  algebra::PlanCache* plan_cache_ = nullptr;
  parallel::ThreadPool* check_pool_ = nullptr;
  // D^t, taken at the first write; empty until then.
  std::optional<Database> pre_;
  // Relations the database owned when pre_ was taken. While no copy is
  // taken, Commit folds their levels back and Commit/Rollback re-own them.
  std::set<std::string> foldable_;
  std::map<std::string, Relation> temps_;
  // dplus/dminus of relations the transaction has not written: one empty
  // relation per relation of the database, built at construction.
  std::map<std::string, Relation> empty_deltas_;
  // Conflict footprint (see BaseReads/WriteFootprint). base_reads_ is
  // mutable because reads are recorded from const Resolve.
  bool track_conflicts_ = false;
  mutable std::set<std::string> base_reads_;
  std::map<std::string, Relation> footprint_;
};

}  // namespace txmod::txn

#endif  // TXMOD_TXN_TXN_CONTEXT_H_
