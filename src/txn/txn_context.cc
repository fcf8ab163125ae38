#include "src/txn/txn_context.h"

#include "src/common/str_util.h"

namespace txmod::txn {

using algebra::RelRefKind;

TxnContext::TxnContext(Database* db) : db_(db) {
  for (const std::string& name : db->RelationNames()) {
    empty_deltas_.emplace(name, Relation((*db->Find(name))->schema_ptr()));
  }
}

Result<const Relation*> TxnContext::Resolve(RelRefKind kind,
                                            const std::string& name) const {
  if (track_conflicts_ &&
      (kind == RelRefKind::kBase || kind == RelRefKind::kOld)) {
    base_reads_.insert(name);
  }
  return ResolveUnrecorded(kind, name);
}

Result<const Relation*> TxnContext::ResolveSchemaOnly(
    RelRefKind kind, const std::string& name) const {
  return ResolveUnrecorded(kind, name);
}

const Relation* TxnContext::Level(const std::string& name) const {
  if (!pre_.has_value()) return nullptr;
  Result<const Relation*> now = db_->Find(name);
  Result<const Relation*> old = pre_->Find(name);
  return now.ok() && old.ok() && *now != *old ? *now : nullptr;
}

Result<const Relation*> TxnContext::ResolveUnrecorded(
    RelRefKind kind, const std::string& name) const {
  switch (kind) {
    case RelRefKind::kBase:
      return db_->Find(name);
    case RelRefKind::kTemp: {
      auto it = temps_.find(name);
      if (it == temps_.end()) {
        return Status::NotFound(StrCat("unknown temporary ", name));
      }
      return &it->second;
    }
    case RelRefKind::kOld:
      return pre_.has_value() ? pre_->Find(name) : db_->Find(name);
    case RelRefKind::kDeltaPlus:
    case RelRefKind::kDeltaMinus: {
      if (const Relation* level = Level(name)) {
        return kind == RelRefKind::kDeltaPlus ? level->plus()
                                              : level->minus();
      }
      auto it = empty_deltas_.find(name);
      if (it == empty_deltas_.end()) {
        return Status::NotFound(StrCat("no delta of relation ", name));
      }
      return &it->second;
    }
  }
  return Status::Internal("unknown RelRefKind");
}

void TxnContext::SetTemp(const std::string& name, Relation value) {
  temps_.insert_or_assign(name, std::move(value));
}

Result<Relation*> TxnContext::MutableLevel(const std::string& rel,
                                           const Relation* current) {
  if (!pre_.has_value()) {
    for (std::string& name : db_->RelationNames()) {
      if (db_->Owns(name)) foldable_.insert(std::move(name));
    }
    pre_.emplace(db_->Clone());
  }
  TXMOD_ASSIGN_OR_RETURN(Relation * level, db_->FindMutable(rel));
  // A new level must sit directly on old(rel), or its plus/minus would
  // not be the transaction's whole delta (copying the database mid-
  // transaction would cause that).
  if (level != current && level->base() != *pre_->Find(rel)) {
    return Status::Internal(
        StrCat("relation ", rel, " was re-layered mid-transaction"));
  }
  return level;
}

void TxnContext::RecordFootprint(const std::string& rel,
                                 const Relation& target, const Tuple& t) {
  auto it = footprint_.find(rel);
  if (it == footprint_.end()) {
    it = footprint_.emplace(rel, Relation(target.schema_ptr())).first;
  }
  // Dedupe before inserting: the footprint has set semantics anyway, but
  // Insert's by-value parameter deep-copies the tuple per attempt — a
  // large idempotent batch re-touching the same tuples would pay an
  // O(attempts) allocation bill for an unchanged set.
  if (!it->second.Contains(t)) it->second.Insert(t);
}

Result<bool> TxnContext::InsertTuple(const std::string& rel, Tuple tuple) {
  // Under conflict tracking the footprint is recorded either way and a
  // no-op (tuple already present) returns before any level exists —
  // whether it WAS a no-op is a tuple-granularity read of the committed
  // state.
  TXMOD_ASSIGN_OR_RETURN(const Relation* current, db_->Find(rel));
  TXMOD_RETURN_IF_ERROR(current->schema().CheckTuple(tuple));
  Tuple coerced = current->schema().CoerceTuple(std::move(tuple));
  if (track_conflicts_) {
    RecordFootprint(rel, *current, coerced);
    if (current->Contains(coerced)) return false;  // already present
  }
  TXMOD_ASSIGN_OR_RETURN(Relation * level, MutableLevel(rel, current));
  return level->Insert(std::move(coerced));
}

Result<bool> TxnContext::DeleteTuple(const std::string& rel,
                                     const Tuple& tuple) {
  TXMOD_ASSIGN_OR_RETURN(const Relation* current, db_->Find(rel));
  const Tuple coerced = current->schema().CoerceTuple(tuple);
  if (track_conflicts_) {
    RecordFootprint(rel, *current, coerced);
    if (!current->Contains(coerced)) return false;  // absent: no-op
  }
  TXMOD_ASSIGN_OR_RETURN(Relation * level, MutableLevel(rel, current));
  return level->Erase(coerced);
}

std::vector<std::pair<std::string, const Relation*>>
TxnContext::WrittenLevels() const {
  std::vector<std::pair<std::string, const Relation*>> out;
  for (std::string& name : db_->RelationNames()) {
    if (const Relation* level = Level(name)) out.emplace_back(name, level);
  }
  return out;
}

bool TxnContext::PreStateUnshared(
    const std::vector<std::pair<std::string, const Relation*>>& levels)
    const {
  // A copy since pre_ un-owns the first level, made together with pre_;
  // a relation written again after it gets a new level over the old one.
  if (levels.empty()) return false;
  for (const auto& [name, level] : levels) {
    if (!db_->Owns(name) || level->base() != *pre_->Find(name)) return false;
  }
  return true;
}

void TxnContext::Rollback() {
  if (pre_.has_value()) {
    const bool unshared = PreStateUnshared(WrittenLevels());
    *db_ = std::move(*pre_);  // drops this database's levels
    if (unshared) db_->Reown(foldable_);
  }
  pre_.reset();
  foldable_.clear();
  temps_.clear();
}

void TxnContext::Commit() {
  const auto levels = WrittenLevels();
  const bool unshared = PreStateUnshared(levels);
  pre_.reset();  // the only other holder of a foldable pre-state
  for (const auto& [name, level] : levels) {
    // Not owned: a mid-transaction copy shares the level; leave it.
    if (!db_->Owns(name)) continue;
    if (unshared && foldable_.count(name) > 0) db_->FoldLevel(name);
    (*db_->FindMutable(name))->CompactOverlay();
  }
  if (unshared) db_->Reown(foldable_);
  foldable_.clear();
  temps_.clear();
  base_reads_.clear();
  footprint_.clear();
  db_->AdvanceTime();
}

}  // namespace txmod::txn
