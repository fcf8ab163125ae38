#include "src/parallel/parallel_db.h"

#include "src/common/str_util.h"

namespace txmod::parallel {

Result<ParallelDatabase> ParallelDatabase::Partition(
    const Database& db,
    const std::map<std::string, FragmentationScheme>& schemes,
    int num_nodes) {
  if (num_nodes < 1) {
    return Status::InvalidArgument("num_nodes must be at least 1");
  }
  ParallelDatabase out;
  out.nodes_.resize(static_cast<std::size_t>(num_nodes));
  for (const RelationSchema& rs : db.schema().relations()) {
    auto it = schemes.find(rs.name());
    const FragmentationScheme scheme =
        it != schemes.end() ? it->second : FragmentationScheme{};
    if (scheme.kind == FragmentationKind::kHash &&
        (scheme.attr < 0 || scheme.attr >= static_cast<int>(rs.arity()))) {
      return Status::InvalidArgument(
          StrCat("hash fragmentation attribute #", scheme.attr,
                 " out of range for ", rs.name()));
    }
    out.schemes_.emplace(rs.name(), scheme);
    std::vector<Relation*> fragments;
    for (Database& node : out.nodes_) {
      TXMOD_RETURN_IF_ERROR(node.CreateRelation(rs));
      fragments.push_back(*node.FindMutable(rs.name()));
    }
    TXMOD_ASSIGN_OR_RETURN(const Relation* rel, db.Find(rs.name()));
    for (const Tuple& t : *rel) {
      fragments[static_cast<std::size_t>(FragmentOf(t, scheme, num_nodes))]
          ->Insert(t);
    }
  }
  return out;
}

Result<FragmentationScheme> ParallelDatabase::Scheme(
    const std::string& name) const {
  auto it = schemes_.find(name);
  if (it == schemes_.end()) {
    return Status::NotFound(StrCat("relation ", name, " not partitioned"));
  }
  return it->second;
}

Database ParallelDatabase::Merge() const {
  Database db;
  for (const RelationSchema& rs : schema().relations()) {
    Status st = db.CreateRelation(rs);
    (void)st;
    Relation* rel = *db.FindMutable(rs.name());
    for (const Database& node : nodes_) {
      for (const Tuple& t : **node.Find(rs.name())) rel->Insert(t);
    }
  }
  return db;
}

}  // namespace txmod::parallel
