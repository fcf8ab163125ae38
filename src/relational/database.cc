#include "src/relational/database.h"

#include "src/common/str_util.h"

namespace txmod {

Database::Database(const Database& other)
    : schema_(other.schema_),
      relations_(other.relations_),
      logical_time_(other.logical_time_) {
  // Every state is now shared: neither side may mutate one in place.
  other.owned_.clear();
}

Database& Database::operator=(const Database& other) {
  if (this != &other) {
    schema_ = other.schema_;
    relations_ = other.relations_;
    logical_time_ = other.logical_time_;
    owned_.clear();
    other.owned_.clear();
  }
  return *this;
}

Status Database::CreateRelation(RelationSchema schema) {
  const std::string name = schema.name();
  TXMOD_RETURN_IF_ERROR(schema_.AddRelation(schema));
  auto shared = std::make_shared<const RelationSchema>(std::move(schema));
  relations_.emplace(name, std::make_shared<Relation>(std::move(shared)));
  owned_.insert(name);
  return Status::OK();
}

Result<const Relation*> Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation ", name, " does not exist"));
  }
  return it->second.get();
}

Result<Relation*> Database::FindMutable(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation ", name, " does not exist"));
  }
  std::shared_ptr<Relation>& slot = it->second;
  if (owned_.insert(name).second) {
    // This state is (or once was) shared with a snapshot — shared states
    // are immutable, so layer a private overlay level over it: O(1) in
    // the relation size, with declared indexes mirrored so compiled
    // checks keep probing via FindIndexView.
    slot = std::make_shared<Relation>(Relation::MakeOverlay(slot));
    ++CowStats::overlays_created;
  }
  return slot.get();
}

std::shared_ptr<Relation> Database::TakeOwnedRelation(
    const std::string& name) {
  auto owned_it = owned_.find(name);
  if (owned_it == owned_.end()) return nullptr;
  auto it = relations_.find(name);
  if (it == relations_.end()) return nullptr;
  std::shared_ptr<Relation> out = std::move(it->second);
  relations_.erase(it);
  owned_.erase(owned_it);
  return out;
}

void Database::AdoptRelation(const std::string& name,
                             std::shared_ptr<Relation> rel) {
  relations_[name] = std::move(rel);
  owned_.insert(name);
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

Database Database::Clone() const {
  return *this;  // Shares relation states; FindMutable un-shares on write.
}

bool Database::SameState(const Database& other, bool compare_time) const {
  if (compare_time && logical_time_ != other.logical_time_) return false;
  if (relations_.size() != other.relations_.size()) return false;
  for (const auto& [name, rel] : relations_) {
    auto it = other.relations_.find(name);
    if (it == other.relations_.end()) return false;
    if (!rel->SameTuples(*it->second)) return false;
  }
  return true;
}

}  // namespace txmod
