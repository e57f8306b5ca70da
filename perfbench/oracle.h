// The result oracle: draws each request's literals from the workload seed
// and computes its expected answer from the generated documents alone, never
// from the system under test.
//
// NoBenchIndex keeps the few per-document facts the NoBench templates
// (workloads/nobench/runners.h numbering, Q1..Q12) filter, group or join on.
// Expected answers are per-template row counts, plus the group total for the
// Q10 aggregate and the affected-row count for the Q12 UPDATE. Every answer
// is over a prefix of the documents, so the ingest workload can ask about
// the rows acknowledged so far.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"
#include "engine/exec.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"

namespace perfbench {

inline constexpr const char* kTable = "nobench_main";

struct Expected {
  uint64_t rows = 0;        // result rows (Q12: rows updated)
  int64_t count_sum = -1;   // Q10: sum of the COUNT(*) column; -1 = unchecked
};

struct Request {
  int q = 0;  // NoBench template number
  std::string sql;
  Expected expect;
  /// The same literals in the form the reference runners take.
  sinew::workloads::nobench::QueryParams params;
};

class NoBenchIndex {
 public:
  explicit NoBenchIndex(const sinew::workloads::nobench::Config& config)
      : config_(config) {}

  /// Appends the facts of the next document (documents arrive in order).
  void Add(const sinew::Value& doc);
  /// Appends every document of `other` (built over the documents that
  /// follow this index's last one).
  void Append(const NoBenchIndex& other);
  size_t size() const { return num_.size(); }

  /// Draws fresh literals for template `q` and computes the expected answer
  /// over the first `prefix` documents. `exclude_group` (or -1) is a sparse
  /// key group Q9 must not draw from (the ingest workload's UPDATE rewrites
  /// one of its keys).
  Request Draw(int q, sinew::Rng* rng, size_t prefix,
               int exclude_group = -1) const;

  /// Q12 literal draw; `*matched` receives the matching document ordinals.
  Request DrawUpdate(sinew::Rng* rng, size_t prefix,
                     std::vector<uint32_t>* matched) const;

 private:
  int Intern(std::unordered_map<std::string, int>* ids,
             std::vector<std::string>* names, const std::string& s);

  sinew::workloads::nobench::Config config_;
  std::unordered_map<std::string, int> str_ids_;
  std::vector<std::string> str_names_;
  // Per document, in load order.
  std::vector<int64_t> num_;
  std::vector<int64_t> thousandth_;
  std::vector<int> str1_;
  std::vector<int> nested_str_;
  std::vector<int64_t> dyn1_int_;  // INT64_MIN when dyn1 is not an int
  std::vector<std::vector<int>> arr_;  // distinct element ids
  std::vector<int> group_;  // sparse key group (keys sparse_{g*10}..+9)
  std::vector<std::vector<int>> sparse_;  // the 10 sparse values, by slot
};

/// True when `result` matches `expect` for template `q`.
bool CheckResult(int q, const sinew::engine::QueryResult& result,
                 const Expected& expect);

/// The cross-system check: runs each request through `db` and through the
/// MongoDB-like reference runner loaded with the same documents, and
/// compares canonical (flattened, number-normalized, sorted) results.
/// Returns one message per mismatching template (empty = all agree).
std::vector<std::string> CrossCheckWithDocStore(
    sinew::SinewDb* db, const std::vector<sinew::Value>& docs,
    const std::vector<Request>& requests);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
