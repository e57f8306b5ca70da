#include "oracle.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <unordered_set>

#include "json/json.h"
#include "workloads/nobench/runners.h"

namespace perfbench {

namespace nb = sinew::workloads::nobench;
using sinew::Value;

namespace {

constexpr int kSparseSlots = 10;

std::string SparseKey(int group, int slot) {
  char name[32];
  std::snprintf(name, sizeof(name), "sparse_%03d", group * kSparseSlots + slot);
  return name;
}

/// `i` uniform in [0, n) with n >= 1.
size_t Pick(sinew::Rng* rng, size_t n) {
  return static_cast<size_t>(rng->Uniform(std::max<size_t>(n, 1)));
}

/// A `width`-wide inclusive range [lo, lo + width] inside [0, domain).
std::pair<int64_t, int64_t> DrawRange(sinew::Rng* rng, uint64_t domain,
                                      uint64_t width) {
  const uint64_t span = domain > width ? domain - width : 1;
  const int64_t lo = static_cast<int64_t>(rng->Uniform(span));
  return {lo, lo + static_cast<int64_t>(width)};
}

}  // namespace

int NoBenchIndex::Intern(std::unordered_map<std::string, int>* ids,
                         std::vector<std::string>* names,
                         const std::string& s) {
  auto [it, inserted] = ids->emplace(s, static_cast<int>(names->size()));
  if (inserted) names->push_back(s);
  return it->second;
}

void NoBenchIndex::Add(const Value& doc) {
  auto str = [&](const Value* v) {
    return v != nullptr && v->is_string()
               ? Intern(&str_ids_, &str_names_, v->string_value())
               : -1;
  };
  const Value* num = doc.Find("num");
  num_.push_back(num != nullptr && num->is_int() ? num->int_value() : -1);
  const Value* th = doc.Find("thousandth");
  thousandth_.push_back(th != nullptr && th->is_int() ? th->int_value() : -1);
  str1_.push_back(str(doc.Find("str1")));
  const Value* nested = doc.Find("nested_obj");
  nested_str_.push_back(
      str(nested != nullptr && nested->is_object() ? nested->Find("str")
                                                   : nullptr));
  const Value* dyn1 = doc.Find("dyn1");
  dyn1_int_.push_back(dyn1 != nullptr && dyn1->is_int() ? dyn1->int_value()
                                                        : INT64_MIN);
  std::vector<int> arr;
  if (const Value* a = doc.Find("nested_arr"); a != nullptr && a->is_array()) {
    for (const Value& e : a->array()) arr.push_back(str(&e));
    std::sort(arr.begin(), arr.end());
    arr.erase(std::unique(arr.begin(), arr.end()), arr.end());
  }
  arr_.push_back(std::move(arr));
  int group = -1;
  std::vector<int> sparse(kSparseSlots, -1);
  for (const auto& [key, value] : doc.members()) {
    if (key.rfind("sparse_", 0) != 0) continue;
    const int index = std::atoi(key.c_str() + 7);
    group = index / kSparseSlots;
    sparse[index % kSparseSlots] = str(&value);
  }
  group_.push_back(group);
  sparse_.push_back(std::move(sparse));
}

void NoBenchIndex::Append(const NoBenchIndex& other) {
  std::vector<int> remap(other.str_names_.size());
  for (size_t k = 0; k < remap.size(); ++k) {
    remap[k] = Intern(&str_ids_, &str_names_, other.str_names_[k]);
  }
  auto id = [&](int v) { return v < 0 ? v : remap[v]; };
  for (size_t i = 0; i < other.size(); ++i) {
    num_.push_back(other.num_[i]);
    thousandth_.push_back(other.thousandth_[i]);
    str1_.push_back(id(other.str1_[i]));
    nested_str_.push_back(id(other.nested_str_[i]));
    dyn1_int_.push_back(other.dyn1_int_[i]);
    std::vector<int> arr;
    for (int a : other.arr_[i]) arr.push_back(id(a));
    std::sort(arr.begin(), arr.end());
    arr_.push_back(std::move(arr));
    group_.push_back(other.group_[i]);
    std::vector<int> sparse;
    for (int v : other.sparse_[i]) sparse.push_back(id(v));
    sparse_.push_back(std::move(sparse));
  }
}

Request NoBenchIndex::Draw(int q, sinew::Rng* rng, size_t prefix,
                           int exclude_group) const {
  prefix = std::min(prefix, size());
  const uint64_t n = config_.num_records;
  Request r;
  r.q = q;
  nb::QueryParams& p = r.params;
  auto count_if = [&](auto pred) {
    uint64_t c = 0;
    for (size_t i = 0; i < prefix; ++i) c += pred(i) ? 1 : 0;
    return c;
  };
  switch (q) {
    case 1:
      r.sql = "SELECT str1, num FROM nobench_main";
      r.expect.rows = prefix;
      break;
    case 2:
      r.sql = "SELECT \"nested_obj.str\", \"nested_obj.num\" FROM nobench_main";
      r.expect.rows = prefix;
      break;
    case 3:
      r.sql = "SELECT sparse_110, sparse_119 FROM nobench_main";
      r.expect.rows = prefix;
      break;
    case 4:
      r.sql = "SELECT sparse_110, sparse_220 FROM nobench_main";
      r.expect.rows = prefix;
      break;
    case 5: {
      const int id = str1_[Pick(rng, prefix)];
      p.q5_str1 = str_names_[id];
      r.sql = "SELECT * FROM nobench_main WHERE str1 = '" + p.q5_str1 + "'";
      r.expect.rows = count_if([&](size_t i) { return str1_[i] == id; });
      break;
    }
    case 6: {
      std::tie(p.q6_lo, p.q6_hi) =
          DrawRange(rng, n, std::max<uint64_t>(n / 1000, 1));
      r.sql = "SELECT * FROM nobench_main WHERE num BETWEEN " +
              std::to_string(p.q6_lo) + " AND " + std::to_string(p.q6_hi);
      r.expect.rows = count_if(
          [&](size_t i) { return num_[i] >= p.q6_lo && num_[i] <= p.q6_hi; });
      break;
    }
    case 7: {
      // dyn1 ints are uniform over [0, 1000); a 20-wide range hits ~1%.
      std::tie(p.q7_lo, p.q7_hi) = DrawRange(rng, 1000, 19);
      r.sql = "SELECT * FROM nobench_main WHERE dyn1 BETWEEN " +
              std::to_string(p.q7_lo) + " AND " + std::to_string(p.q7_hi);
      r.expect.rows = count_if([&](size_t i) {
        return dyn1_int_[i] >= p.q7_lo && dyn1_int_[i] <= p.q7_hi;
      });
      break;
    }
    case 8: {
      size_t doc = Pick(rng, prefix);
      for (size_t tries = 0; arr_[doc].empty() && tries < prefix; ++tries) {
        doc = (doc + 1) % prefix;
      }
      const int id = arr_[doc].empty() ? -1 : arr_[doc][Pick(rng, arr_[doc].size())];
      p.q8_arr_value = id < 0 ? "NONE" : str_names_[id];
      r.sql = "SELECT * FROM nobench_main WHERE array_contains(nested_arr, '" +
              p.q8_arr_value + "')";
      r.expect.rows = count_if([&](size_t i) {
        return std::binary_search(arr_[i].begin(), arr_[i].end(), id);
      });
      break;
    }
    case 9: {
      size_t doc = Pick(rng, prefix);
      while (group_[doc] == exclude_group || group_[doc] < 0) {
        doc = (doc + 1) % prefix;
      }
      const int g = group_[doc];
      const int slot = static_cast<int>(Pick(rng, kSparseSlots));
      const int id = sparse_[doc][slot];
      p.q9_sparse_key = SparseKey(g, slot);
      p.q9_value = str_names_[id];
      r.sql = "SELECT * FROM nobench_main WHERE " + p.q9_sparse_key + " = '" +
              p.q9_value + "'";
      r.expect.rows = count_if(
          [&](size_t i) { return group_[i] == g && sparse_[i][slot] == id; });
      break;
    }
    case 10: {
      std::tie(p.q10_lo, p.q10_hi) =
          DrawRange(rng, n, std::max<uint64_t>(n / 10, 1));
      r.sql = "SELECT thousandth, COUNT(*) FROM nobench_main WHERE num "
              "BETWEEN " + std::to_string(p.q10_lo) + " AND " +
              std::to_string(p.q10_hi) + " GROUP BY thousandth";
      std::unordered_set<int64_t> groups;
      int64_t total = 0;
      for (size_t i = 0; i < prefix; ++i) {
        if (num_[i] < p.q10_lo || num_[i] > p.q10_hi) continue;
        groups.insert(thousandth_[i]);
        ++total;
      }
      r.expect.rows = groups.size();
      r.expect.count_sum = total;
      break;
    }
    case 11: {
      std::tie(p.q11_lo, p.q11_hi) =
          DrawRange(rng, n, std::max<uint64_t>(n / 1000, 1));
      r.sql = "SELECT t1.num, t1.\"nested_obj.str\", t2.num "
              "FROM nobench_main t1, nobench_main t2 "
              "WHERE t1.\"nested_obj.str\" = t2.str1 AND t1.num BETWEEN " +
              std::to_string(p.q11_lo) + " AND " + std::to_string(p.q11_hi);
      std::unordered_map<int, uint64_t> str1_count;
      for (size_t i = 0; i < prefix; ++i) ++str1_count[str1_[i]];
      for (size_t i = 0; i < prefix; ++i) {
        if (num_[i] < p.q11_lo || num_[i] > p.q11_hi) continue;
        auto it = str1_count.find(nested_str_[i]);
        if (it != str1_count.end()) r.expect.rows += it->second;
      }
      break;
    }
    default:
      r.sql = "SELECT bad_template FROM nobench_main";
      break;
  }
  return r;
}

Request NoBenchIndex::DrawUpdate(sinew::Rng* rng, size_t prefix,
                                 std::vector<uint32_t>* matched) const {
  prefix = std::min(prefix, size());
  // NoBench Q12 keys: match sparse_589, set sparse_588 (group 58).
  constexpr int kGroup = 58;
  Request r;
  r.q = 12;
  nb::QueryParams& p = r.params;
  p.q12_match_key = SparseKey(kGroup, 9);
  p.q12_set_key = SparseKey(kGroup, 8);
  p.q12_match_value =
      nb::PoolString("sparse", rng->Uniform(nb::Config::kSparseValuePool));
  r.sql = "UPDATE nobench_main SET " + p.q12_set_key + " = 'DUMMY' WHERE " +
          p.q12_match_key + " = '" + p.q12_match_value + "'";
  auto it = str_ids_.find(p.q12_match_value);
  const int id = it == str_ids_.end() ? -2 : it->second;
  for (size_t i = 0; i < prefix; ++i) {
    if (group_[i] == kGroup && sparse_[i][9] == id) {
      ++r.expect.rows;
      if (matched != nullptr) matched->push_back(static_cast<uint32_t>(i));
    }
  }
  return r;
}

bool CheckResult(int q, const sinew::engine::QueryResult& result,
                 const Expected& expect) {
  if (q == 12) {
    return result.rows.size() == 1 && result.rows[0].size() == 1 &&
           result.rows[0][0].is_int() &&
           static_cast<uint64_t>(result.rows[0][0].int_value()) == expect.rows;
  }
  if (result.rows.size() != expect.rows) return false;
  if (expect.count_sum >= 0) {
    int64_t total = 0;
    for (const auto& row : result.rows) {
      if (row.size() != 2 || !row[1].is_int()) return false;
      total += row[1].int_value();
    }
    if (total != expect.count_sum) return false;
  }
  return true;
}

namespace {

// Canonical form of a Sinew result, as workloads/nobench/runners.cc builds
// it for its Sinew runner: collections rendered as JSON text are parsed
// back, ints become doubles, SELECT * rows become flattened documents.
Value CanonicalDatum(const sinew::engine::Datum& d) {
  Value v = d.ToValue();
  if (v.is_string() && !v.string_value().empty() &&
      (v.string_value()[0] == '{' || v.string_value()[0] == '[')) {
    sinew::Result<Value> parsed = sinew::json::Parse(v.string_value());
    if (parsed.ok()) v = std::move(*parsed);
  }
  return v.is_int() ? Value::Double(static_cast<double>(v.int_value())) : v;
}

std::vector<Value> CanonicalRows(int q, const sinew::engine::QueryResult& r) {
  std::vector<Value> rows;
  rows.reserve(r.rows.size());
  for (const auto& row : r.rows) {
    if (q >= 5 && q <= 9) {
      Value doc = Value::Object({});
      for (size_t i = 0; i < row.size(); ++i) {
        if (!row[i].is_null()) doc.Set(r.column_names[i], CanonicalDatum(row[i]));
      }
      rows.push_back(nb::CanonicalizeDocument(doc));
      continue;
    }
    std::vector<Value> cells;
    bool all_null = true;
    for (const auto& d : row) {
      cells.push_back(CanonicalDatum(d));
      all_null = all_null && d.is_null();
    }
    // The reference drops all-NULL sparse projections (Q3/Q4).
    if ((q == 3 || q == 4) && all_null) continue;
    rows.push_back(Value::Array(std::move(cells)));
  }
  nb::SortRows(&rows);
  return rows;
}

}  // namespace

std::vector<std::string> CrossCheckWithDocStore(
    sinew::SinewDb* db, const std::vector<Value>& docs,
    const std::vector<Request>& requests) {
  std::vector<std::string> problems;
  nb::MongoLikeRunner reference;
  if (sinew::Status st = reference.Load(docs); !st.ok()) {
    return {"reference load failed: " + st.ToString()};
  }
  for (const Request& req : requests) {
    const std::string label = "Q" + std::to_string(req.q);
    sinew::Result<std::vector<Value>> want = reference.Run(req.q, req.params);
    if (!want.ok()) {
      problems.push_back(label + ": reference failed: " + want.status().ToString());
      continue;
    }
    sinew::Result<sinew::engine::QueryResult> got = db->Query(req.sql);
    if (!got.ok()) {
      problems.push_back(label + ": " + got.status().ToString());
      continue;
    }
    std::vector<Value> rows = CanonicalRows(req.q, *got);
    bool same = rows.size() == want->size();
    for (size_t i = 0; same && i < rows.size(); ++i) {
      same = Value::Compare(rows[i], (*want)[i]) == 0;
    }
    if (!same) {
      problems.push_back(label + ": " + std::to_string(rows.size()) +
                         " canonical rows, reference has " +
                         std::to_string(want->size()));
    }
  }
  return problems;
}

}  // namespace perfbench
