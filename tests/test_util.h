#ifndef TXMOD_TESTS_TEST_UTIL_H_
#define TXMOD_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "bench/workload.h"
#include "src/baseline/posthoc_checker.h"
#include "src/core/subsystem.h"
#include "src/relational/database.h"

namespace txmod::testing {

/// Fails the current test when `status` is not OK.
#define TXMOD_ASSERT_OK(expr)                                  \
  do {                                                         \
    const ::txmod::Status _st = (expr);                        \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (false)

#define TXMOD_EXPECT_OK(expr)                                  \
  do {                                                         \
    const ::txmod::Status _st = (expr);                        \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (false)

/// Unwraps a Result<T>, failing the test on error. Usage:
///   TXMOD_ASSERT_OK_AND_ASSIGN(auto v, ComputeV());
#define TXMOD_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                       \
  TXMOD_ASSERT_OK_AND_ASSIGN_IMPL_(                                  \
      TXMOD_TEST_CONCAT_(_txmod_res, __LINE__), lhs, rexpr)
#define TXMOD_ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)            \
  auto tmp = (rexpr);                                                \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();                  \
  lhs = std::move(tmp).value()
#define TXMOD_TEST_CONCAT_(a, b) TXMOD_TEST_CONCAT_IMPL_(a, b)
#define TXMOD_TEST_CONCAT_IMPL_(a, b) a##b

/// The running example of the paper (Example 4.1): a beer database with
///   beer(name, type, brewery, alcohol)
///   brewery(name, city, country)
inline Database MakeBeerDatabase() {
  Database db;
  Status st = db.CreateRelation(RelationSchema(
      "beer", {Attribute{"name", AttrType::kString},
               Attribute{"type", AttrType::kString},
               Attribute{"brewery", AttrType::kString},
               Attribute{"alcohol", AttrType::kDouble}}));
  st = db.CreateRelation(RelationSchema(
      "brewery", {Attribute{"name", AttrType::kString},
                  Attribute{"city", AttrType::kString},
                  Attribute{"country", AttrType::kString}}));
  (void)st;
  return db;
}

/// Inserts a beer tuple directly (bypassing integrity control).
inline void AddBeer(Database* db, const std::string& name,
                    const std::string& type, const std::string& brewery,
                    double alcohol) {
  Relation* rel = *db->FindMutable("beer");
  rel->Insert(Tuple({Value::String(name), Value::String(type),
                     Value::String(brewery), Value::Double(alcohol)}));
}

inline void AddBrewery(Database* db, const std::string& name,
                       const std::string& city, const std::string& country) {
  Relation* rel = *db->FindMutable("brewery");
  rel->Insert(Tuple({Value::String(name), Value::String(city),
                     Value::String(country)}));
}

/// The paper's constraints over the beer database (Example 4.1): the
/// referential constraint ties every beer to an existing brewery; the
/// domain constraint bounds the alcohol percentage.
inline const char* BeerRefIntConstraint() {
  return "forall x (x in beer implies exists y (y in brewery and "
         "x.brewery = y.name))";
}

inline const char* BeerDomainConstraint() {
  return "forall x (x in beer implies x.alcohol >= 0 and x.alcohol <= 100)";
}

/// Defines the Section 7 key/fk constraints (bench/workload.h) on `ics`.
inline Status DefineKeyFkConstraints(core::IntegritySubsystem* ics) {
  TXMOD_RETURN_IF_ERROR(
      ics->DefineConstraint("domain", bench::DomainConstraint()));
  return ics->DefineConstraint("refint", bench::RefIntConstraint());
}

/// The independent terminal oracle: checks `state` in full against the
/// constraints `define` declares — the post-hoc checker with triggers off
/// runs an empty transaction over a private copy, so no differential
/// simplification is involved — and succeeds only when all of them hold.
template <typename DefineFn>
::testing::AssertionResult SatisfiesConstraints(const Database& state,
                                                const DefineFn& define) {
  Database copy = state.Clone();
  core::IntegritySubsystem ics(&copy);
  const Status defined = define(&ics);
  if (!defined.ok()) {
    return ::testing::AssertionFailure() << defined.ToString();
  }
  baseline::PostHocChecker checker(&ics, {/*use_triggers=*/false});
  Result<txn::TxnResult> checked = checker.Execute(algebra::Transaction{});
  if (!checked.ok()) {
    return ::testing::AssertionFailure() << checked.status().ToString();
  }
  if (!checked->committed) {
    return ::testing::AssertionFailure() << checked->abort_reason;
  }
  return ::testing::AssertionSuccess();
}

/// SatisfiesConstraints for the key/fk constraints.
inline ::testing::AssertionResult SatisfiesKeyFkConstraints(
    const Database& state) {
  return SatisfiesConstraints(state, DefineKeyFkConstraints);
}

}  // namespace txmod::testing

#endif  // TXMOD_TESTS_TEST_UTIL_H_
