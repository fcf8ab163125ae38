#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

// Seeded transaction streams over the paper's Section 7 database
// (key_rel / fk_rel, see bench/workload.h).
//
// Every stream owns a disjoint slice of fk_rel and a disjoint pool of
// unreferenced keys, and keeps a model of what its slice should hold.
// Each generated transaction inserts fresh fk tuples and deletes as many
// older tuples of the same stream, so the database size stays fixed and
// every transaction changes base tuples (never a read-only commit). A
// seeded fraction carries one dangling `ref` and must end in an
// integrity abort. The stream depends only on the seed and on the
// outcomes fed back through Settle(), which a correct program fixes
// (injected <=> aborted); so one seed gives one transaction stream.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/algebra/statement.h"
#include "src/relational/database.h"

namespace perfbench {

/// Deliberate generator defects, used by the gate self-test to show the
/// correctness gate rejects them.
enum class Fault {
  kNone,
  /// Re-emits its first transaction forever, as a generator with a stuck
  /// id counter would: from the second commit on nothing is installed.
  kReuseIds,
  /// Injects violations as usual but reports them as valid transactions.
  kUnreportedViolation,
};

struct Sizes {
  int keys = 5000;   // key_rel tuples "k0".."k<keys-1>"
  int fks = 50000;   // initial fk_rel tuples, ids 0..fks-1
};

/// One generated transaction, as base-tuple changes.
struct TxnSpec {
  std::vector<txmod::Tuple> fk_deletes;
  std::vector<txmod::Tuple> fk_inserts;
  std::vector<txmod::Tuple> key_deletes;
  std::vector<txmod::Tuple> key_inserts;
  /// The generator says this transaction carries a violation.
  bool injected = false;

  /// Base-tuple changes the transaction installs when it commits (every
  /// change is effective by construction).
  uint64_t changes() const {
    return fk_deletes.size() + fk_inserts.size() + key_deletes.size() +
           key_inserts.size();
  }
  txmod::algebra::Transaction ToTransaction() const;
  /// The same transaction in the algebra text syntax (the `run` verb's
  /// body); parses back to ToTransaction().
  std::string ToText() const;
};

/// A per-client transaction stream.
class Stream {
 public:
  /// OLTP shape: one fresh fk insert plus the delete of this client's
  /// tuple from 1000 transactions earlier; 2% inject a dangling ref, 2%
  /// also toggle one of the client's 8 unreferenced keys. Client c owns
  /// initial fk ids [1000c, 1000c + 1000).
  static Stream Oltp(uint64_t seed, int client, const Sizes& sizes,
                     Fault fault);
  /// Section 7 bulk shape: 1000 fresh fk inserts, the delete of the 1000
  /// inserted two transactions earlier, and a swap of a 500-key pool (the
  /// 250 present keys deleted, the 250 absent ones inserted); 1 in 50
  /// carries one dangling ref. Owns initial fk ids [0, 2000).
  static Stream Bulk(uint64_t seed, const Sizes& sizes, Fault fault);

  /// Generates the next transaction; valid until the next call.
  const TxnSpec& Next();
  /// Feeds back the outcome of the transaction Next() returned last.
  void Settle(bool committed);

  /// The model: fk tuples this stream's slice holds now, and the pool
  /// keys present now.
  std::vector<txmod::Tuple> LiveFks() const;
  std::vector<std::string> PresentKeys() const;
  /// fk ids [owned_begin, owned_end) of the initial database belong to
  /// this stream.
  int64_t owned_begin() const { return owned_begin_; }
  int64_t owned_end() const { return owned_end_; }

 private:
  enum class Shape { kOltp, kBulk };
  Stream(Shape shape, uint64_t seed, const Sizes& sizes, Fault fault);

  uint64_t NextRandom();
  uint64_t Below(uint64_t n) { return NextRandom() % n; }
  txmod::Tuple FreshFk(bool dangling);
  void Generate();

  Shape shape_;
  uint64_t rng_state_;
  Sizes sizes_;
  Fault fault_;
  int64_t next_id_ = 0;
  int64_t owned_begin_ = 0;
  int64_t owned_end_ = 0;
  /// Live fk tuples in insertion order, one batch per transaction.
  std::deque<std::vector<txmod::Tuple>> fifo_;
  std::vector<std::string> pool_;
  std::vector<bool> present_;
  TxnSpec current_;
  int toggled_ = -1;  // pool index the current transaction toggles
  bool generated_once_ = false;
};

/// Fails unless `db` holds exactly the initial database with every
/// stream's slice and key pool replaced by the stream's model: each
/// acked insert not yet deleted is present, and nothing else (no aborted
/// or deleted tuple) is.
txmod::Status CheckModel(const txmod::Database& db,
                         const std::vector<Stream>& streams,
                         const Sizes& sizes);

/// Adds every stream's initially present pool keys to key_rel.
void AddPoolKeys(txmod::Database* db, const std::vector<Stream>& streams);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
