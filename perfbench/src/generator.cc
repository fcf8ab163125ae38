#include "perfbench/src/generator.h"

#include <unordered_set>
#include <utility>

#include "src/algebra/rel_expr.h"
#include "src/common/str_util.h"

namespace perfbench {

using txmod::StrCat;
using txmod::Tuple;
using txmod::Value;

namespace {

constexpr int kOltpLag = 1000;       // delete the tuple of txn i - kOltpLag
constexpr int kOltpPoolKeys = 8;     // unreferenced keys per OLTP client
constexpr int kBulkBatch = 1000;     // fk inserts (and deletes) per txn
constexpr int kBulkLag = 2;          // delete the batch of txn i - kBulkLag
constexpr int kBulkPoolKeys = 500;   // half present, half absent

// Fresh ids start above any initial id and are disjoint per stream.
constexpr int64_t kFreshIdBase = int64_t{1} << 40;
constexpr int64_t kFreshIdStride = int64_t{1} << 32;

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Tuple Fk(int64_t id, const std::string& ref, int64_t amount) {
  return Tuple({Value::Int(id), Value::String(ref),
                Value::Double(static_cast<double>(amount))});
}

void AppendStatement(bool insert, const char* relation,
                     const std::vector<Tuple>& tuples, int arity,
                     txmod::algebra::Transaction* txn) {
  if (tuples.empty()) return;
  auto literal = txmod::algebra::RelExpr::Literal(tuples, arity);
  txn->program.statements.push_back(
      insert ? txmod::algebra::Statement::Insert(relation, std::move(literal))
             : txmod::algebra::Statement::Delete(relation,
                                                 std::move(literal)));
}

/// The initial fk_rel tuple with id `id` (MakeKeyFkDatabase's layout).
Tuple InitialFk(int64_t id, const Sizes& sizes) {
  return Fk(id, StrCat("k", id % sizes.keys), 1 + id % 10);
}

Tuple KeyTuple(const std::string& key) {
  return Tuple({Value::String(key), Value::String("payload")});
}

/// The reference no key_rel tuple ever holds.
constexpr const char* kDanglingRef = "dangling";

}  // namespace

txmod::algebra::Transaction TxnSpec::ToTransaction() const {
  txmod::algebra::Transaction txn;
  AppendStatement(false, "fk_rel", fk_deletes, 3, &txn);
  AppendStatement(true, "fk_rel", fk_inserts, 3, &txn);
  AppendStatement(false, "key_rel", key_deletes, 2, &txn);
  AppendStatement(true, "key_rel", key_inserts, 2, &txn);
  return txn;
}

std::string TxnSpec::ToText() const {
  return ToTransaction().program.ToString();
}

Stream::Stream(Shape shape, uint64_t seed, const Sizes& sizes, Fault fault)
    : shape_(shape), rng_state_(Mix(seed)), sizes_(sizes), fault_(fault) {}

Stream Stream::Oltp(uint64_t seed, int client, const Sizes& sizes,
                    Fault fault) {
  Stream s(Shape::kOltp,
           seed * 0x9e3779b97f4a7c15ULL + 0x6f6c7470ULL +
               static_cast<uint64_t>(client),
           sizes, fault);
  s.next_id_ = kFreshIdBase + (client + 1) * kFreshIdStride;
  s.owned_begin_ = int64_t{client} * kOltpLag;
  s.owned_end_ = s.owned_begin_ + kOltpLag;
  for (int64_t id = s.owned_begin_; id < s.owned_end_; ++id) {
    s.fifo_.push_back({InitialFk(id, sizes)});
  }
  for (int j = 0; j < kOltpPoolKeys; ++j) {
    s.pool_.push_back(StrCat("u", client, "_", j));
  }
  s.present_.assign(s.pool_.size(), true);
  return s;
}

Stream Stream::Bulk(uint64_t seed, const Sizes& sizes, Fault fault) {
  Stream s(Shape::kBulk, seed * 0x9e3779b97f4a7c15ULL + 0x62756c6bULL,
           sizes, fault);
  s.next_id_ = kFreshIdBase;
  s.owned_begin_ = 0;
  s.owned_end_ = int64_t{kBulkLag} * kBulkBatch;
  for (int b = 0; b < kBulkLag; ++b) {
    std::vector<Tuple> batch;
    for (int i = 0; i < kBulkBatch; ++i) {
      batch.push_back(InitialFk(int64_t{b} * kBulkBatch + i, sizes));
    }
    s.fifo_.push_back(std::move(batch));
  }
  for (int j = 0; j < kBulkPoolKeys; ++j) s.pool_.push_back(StrCat("p", j));
  // A seeded half of the pool is present at the start.
  std::vector<int> order(kBulkPoolKeys);
  for (int j = 0; j < kBulkPoolKeys; ++j) order[j] = j;
  for (int j = kBulkPoolKeys - 1; j > 0; --j) {
    std::swap(order[j], order[s.Below(static_cast<uint64_t>(j) + 1)]);
  }
  s.present_.assign(s.pool_.size(), false);
  for (int j = 0; j < kBulkPoolKeys / 2; ++j) s.present_[order[j]] = true;
  return s;
}

uint64_t Stream::NextRandom() {
  rng_state_ += 0x9e3779b97f4a7c15ULL;
  return Mix(rng_state_);
}

Tuple Stream::FreshFk(bool dangling) {
  const int64_t id = next_id_++;
  const std::string ref =
      dangling ? kDanglingRef
               : StrCat("k", Below(static_cast<uint64_t>(sizes_.keys)));
  return Fk(id, ref, static_cast<int64_t>(Below(100)));
}

void Stream::Generate() {
  current_ = TxnSpec();
  toggled_ = -1;
  bool inject = false;
  if (shape_ == Shape::kOltp) {
    const uint64_t r = Below(10000);
    inject = r < 200;
    const bool toggle = r >= 200 && r < 400;
    current_.fk_inserts.push_back(FreshFk(inject));
    current_.fk_deletes = fifo_.front();
    if (toggle) {
      toggled_ = static_cast<int>(Below(pool_.size()));
      (present_[toggled_] ? current_.key_deletes : current_.key_inserts)
          .push_back(KeyTuple(pool_[toggled_]));
    }
  } else {
    inject = Below(50) == 0;
    const uint64_t dangling_at = Below(kBulkBatch);
    for (int i = 0; i < kBulkBatch; ++i) {
      current_.fk_inserts.push_back(
          FreshFk(inject && static_cast<uint64_t>(i) == dangling_at));
    }
    current_.fk_deletes = fifo_.front();
    for (std::size_t j = 0; j < pool_.size(); ++j) {
      (present_[j] ? current_.key_deletes : current_.key_inserts)
          .push_back(KeyTuple(pool_[j]));
    }
  }
  current_.injected = inject && fault_ != Fault::kUnreportedViolation;
}

const TxnSpec& Stream::Next() {
  if (fault_ == Fault::kReuseIds && generated_once_) return current_;
  do {
    Generate();
  } while (fault_ == Fault::kReuseIds && current_.injected);
  generated_once_ = true;
  return current_;
}

void Stream::Settle(bool committed) {
  if (!committed) return;
  fifo_.pop_front();
  fifo_.push_back(current_.fk_inserts);
  if (shape_ == Shape::kBulk) {
    present_.flip();
  } else if (toggled_ >= 0) {
    present_[toggled_] = !present_[toggled_];
  }
}

std::vector<Tuple> Stream::LiveFks() const {
  std::vector<Tuple> out;
  for (const std::vector<Tuple>& batch : fifo_) {
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

std::vector<std::string> Stream::PresentKeys() const {
  std::vector<std::string> out;
  for (std::size_t j = 0; j < pool_.size(); ++j) {
    if (present_[j]) out.push_back(pool_[j]);
  }
  return out;
}

txmod::Status CheckModel(const txmod::Database& db,
                         const std::vector<Stream>& streams,
                         const Sizes& sizes) {
  TXMOD_ASSIGN_OR_RETURN(const txmod::Relation* fk, db.Find("fk_rel"));
  TXMOD_ASSIGN_OR_RETURN(const txmod::Relation* key, db.Find("key_rel"));
  std::vector<bool> owned(static_cast<std::size_t>(sizes.fks), false);
  // Distinct tuples: a model that lists one tuple twice (a generator
  // that re-emits its inserts) must not make up for a missing one.
  std::unordered_set<Tuple, txmod::TupleHasher> live;
  std::size_t key_expected = static_cast<std::size_t>(sizes.keys);
  for (const Stream& s : streams) {
    for (int64_t id = s.owned_begin(); id < s.owned_end(); ++id) {
      owned[static_cast<std::size_t>(id)] = true;
    }
    for (const Tuple& t : s.LiveFks()) {
      if (!fk->Contains(t)) {
        return txmod::Status::Internal(
            StrCat("fk_rel lacks a tuple the model holds: ", t.ToString()));
      }
      live.insert(t);
    }
    for (const std::string& k : s.PresentKeys()) {
      ++key_expected;
      if (!key->Contains(KeyTuple(k))) {
        return txmod::Status::Internal(
            StrCat("key_rel lacks pool key ", k));
      }
    }
  }
  std::size_t fk_expected = live.size();
  for (int64_t id = 0; id < sizes.fks; ++id) {
    if (owned[static_cast<std::size_t>(id)]) continue;
    ++fk_expected;
    if (!fk->Contains(InitialFk(id, sizes))) {
      return txmod::Status::Internal(
          StrCat("fk_rel lost untouched initial tuple ", id));
    }
  }
  for (int k = 0; k < sizes.keys; ++k) {
    if (!key->Contains(KeyTuple(StrCat("k", k)))) {
      return txmod::Status::Internal(StrCat("key_rel lost key k", k));
    }
  }
  if (fk->size() != fk_expected || key->size() != key_expected) {
    return txmod::Status::Internal(
        StrCat("state size mismatch: fk_rel ", fk->size(), " (model ",
               fk_expected, "), key_rel ", key->size(), " (model ",
               key_expected, ")"));
  }
  return txmod::Status::OK();
}

void AddPoolKeys(txmod::Database* db, const std::vector<Stream>& streams) {
  txmod::Relation* key = *db->FindMutable("key_rel");
  for (const Stream& s : streams) {
    for (const std::string& k : s.PresentKeys()) key->Insert(KeyTuple(k));
  }
}

}  // namespace perfbench
