#ifndef TXMOD_PARALLEL_PARALLEL_DB_H_
#define TXMOD_PARALLEL_PARALLEL_DB_H_

#include <map>
#include <string>
#include <vector>

#include "src/parallel/fragmentation.h"
#include "src/relational/database.h"

namespace txmod::parallel {

/// A PRISMA-style fragmented database: every relation horizontally
/// partitioned over `num_nodes` nodes ([7]). Each node holds an ordinary
/// Database with one relation per fragmented relation — the fragment
/// stored on that node — so a transaction runs on a node through the same
/// TxnContext as on a serial database. Built by partitioning a serial
/// Database; Merge() reconstructs one for verification against serial
/// execution.
class ParallelDatabase {
 public:
  /// Partitions `db`. Relations without an entry in `schemes` default to
  /// round-robin.
  static Result<ParallelDatabase> Partition(
      const Database& db,
      const std::map<std::string, FragmentationScheme>& schemes,
      int num_nodes);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Node `i`'s database: relation R holds R's fragment on node i.
  const Database& node(int i) const {
    return nodes_[static_cast<std::size_t>(i)];
  }
  Database* mutable_node(int i) {
    return &nodes_[static_cast<std::size_t>(i)];
  }

  /// How `name` is fragmented over the nodes.
  Result<FragmentationScheme> Scheme(const std::string& name) const;

  const DatabaseSchema& schema() const { return nodes_[0].schema(); }

  /// Reassembles the fragments into a serial database state.
  Database Merge() const;

 private:
  std::vector<Database> nodes_;  // never empty
  std::map<std::string, FragmentationScheme> schemes_;
};

}  // namespace txmod::parallel

#endif  // TXMOD_PARALLEL_PARALLEL_DB_H_
