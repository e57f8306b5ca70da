// The three benchmark workloads. See perfbench/README.md for what each one
// runs, why, and how every metric is defined.

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/rng.h"
#include "counting_env.h"
#include "engine/parser.h"
#include "engine/table.h"
#include "harness.h"
#include "json/json.h"
#include "oracle.h"
#include "sinew/durable_db.h"
#include "tracer.h"

namespace perfbench {

namespace nb = sinew::workloads::nobench;
using sinew::DurableDb;
using sinew::SinewDb;
using sinew::Status;
using sinew::engine::QueryResult;

namespace {

constexpr uint64_t kQueryDocs = 32768;
constexpr uint64_t kIngestDocs = 65536;
constexpr size_t kCommitDocs = 8;  // documents per JSON-lines commit
constexpr int kIngestCommitsPerRound = 32;
constexpr int kSetupRepeats = 3;
// recovery_s is the fastest of the run's timed Opens (best of N): a single
// Open is one 0.2-2 s burst of parallel work, and host CPU phases on a
// shared machine slow single Opens by up to 60%, so their median moves with
// the phase a run lands in while the fastest tracks the work itself.
constexpr int kRestartsPerCycle = 5;  // query workloads
constexpr int kRecoveryRepeats = 6;   // durable_ingest
constexpr size_t kRequestsPerTemplate = 256;
// commit_p99_ms is the median over spans of this many consecutive commits of
// each span's p99, so one span with a burst of slow fsyncs does not move it.
constexpr size_t kCommitSpan = 1024;

// ------------------------------------------------------------- inputs

struct Dataset {
  nb::Config config;
  std::vector<std::string> batches;  // JSON lines, one commit each
  uint64_t json_bytes = 0;
  std::unique_ptr<NoBenchIndex> index;
};

/// Generates the documents as JSON-lines batches on `threads` threads (each
/// a contiguous range of batches), then appends the oracle facts of each
/// range in document order.
Dataset MakeDataset(uint64_t docs, uint64_t seed, size_t per_batch,
                    int threads) {
  Dataset d;
  d.config.num_records = docs;
  d.config.seed = seed;
  d.index = std::make_unique<NoBenchIndex>(d.config);
  const size_t batches = (docs + per_batch - 1) / per_batch;
  d.batches.resize(batches);
  std::vector<NoBenchIndex> parts(threads, NoBenchIndex(d.config));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const size_t first = batches * t / threads;
      const size_t last = batches * (t + 1) / threads;
      for (size_t b = first; b < last; ++b) {
        const uint64_t end = std::min<uint64_t>(docs, (b + 1) * per_batch);
        for (uint64_t i = b * per_batch; i < end; ++i) {
          sinew::Value doc = nb::GenerateRecord(d.config, i);
          parts[t].Add(doc);
          d.batches[b] += sinew::json::Write(doc);
          d.batches[b] += '\n';
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const NoBenchIndex& part : parts) d.index->Append(part);
  for (const std::string& b : d.batches) d.json_bytes += b.size();
  return d;
}

/// DurableDb defaults (8 MB memtable threshold, flush = compaction) with
/// the run's Gather degree and the given WAL sync policy.
sinew::DurableDbOptions DbOptions(const Options& o, sinew::WalSyncPolicy sync) {
  sinew::DurableDbOptions options;
  options.sinew.parallelism = o.gather_degree;
  options.wal.sync_policy = sync;
  return options;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Fail(Report* report, const std::string& what, const Status& st) {
  ++report->failed;
  if (report->failed <= 5) report->Note("FAILED " + what + ": " + st.ToString());
}

// ------------------------------------------- counters read around layers

/// Deltas of existing MetricsRegistry counters, read around one layer call.
struct Counters {
  uint64_t compile_ns = 0, batches = 0, gather_stalls = 0, pool_busy_ns = 0,
           decodes = 0, reservoir_attrs = 0, strip_hits = 0, zone_skips = 0,
           typed = 0, boxed = 0, fallback = 0;

  static Counters Read() {
    namespace m = sinew::metrics;
    static m::Counter* compile = m::GetCounter("bytecode.compile_ns_total");
    static m::Counter* batches = m::GetCounter("exec.batches_total");
    static m::Counter* stalls =
        m::GetCounter("exec.gather.queue_full_stalls_total");
    static m::Counter* busy = m::GetCounter("threadpool.busy_ns_total");
    static m::Counter* decodes = m::GetCounter("reservoir.decodes");
    static m::Histogram* attrs = m::GetHistogram("reservoir.attrs_per_decode");
    static m::Counter* hits = m::GetCounter("extract.columnar_hits");
    static m::Counter* skips = m::GetCounter("strips.skipped_by_zonemap");
    static m::Counter* typed = m::GetCounter("eval.typed_lanes");
    static m::Counter* boxed = m::GetCounter("eval.boxed_lanes");
    static m::Counter* fallback = m::GetCounter("eval.fallback_lanes");
    Counters c;
    c.compile_ns = compile->value();
    c.batches = batches->value();
    c.gather_stalls = stalls->value();
    c.pool_busy_ns = busy->value();
    c.decodes = decodes->value();
    c.reservoir_attrs = attrs->sum();
    c.strip_hits = hits->value();
    c.zone_skips = skips->value();
    c.typed = typed->value();
    c.boxed = boxed->value();
    c.fallback = fallback->value();
    return c;
  }

  void AddDelta(const Counters& after, const Counters& before) {
    compile_ns += after.compile_ns - before.compile_ns;
    batches += after.batches - before.batches;
    gather_stalls += after.gather_stalls - before.gather_stalls;
    pool_busy_ns += after.pool_busy_ns - before.pool_busy_ns;
    decodes += after.decodes - before.decodes;
    reservoir_attrs += after.reservoir_attrs - before.reservoir_attrs;
    strip_hits += after.strip_hits - before.strip_hits;
    zone_skips += after.zone_skips - before.zone_skips;
    typed += after.typed - before.typed;
    boxed += after.boxed - before.boxed;
    fallback += after.fallback - before.fallback;
  }
};

// ------------------------------------------------------ query ledger

/// Per-layer query accounting of a traced run. Untraced Query() samples and
/// traced layer-by-layer samples of the same templates are interleaved in
/// one run; means are used because they add up.
class QueryLedger {
 public:
  void AddQueryCall(int q, uint64_t ns) {
    query_ns_[q].push_back(static_cast<double>(ns));
  }

  struct Layers {
    uint64_t parse = 0, rewrite = 0, plan = 0, exec = 0, free = 0, total = 0;
    uint64_t targets = 0, rows = 0, cells = 0;
  };
  void AddLayers(int q, const Layers& l, const Counters& c) {
    PerTemplate& t = layers_[q];
    ++t.n;
    t.parse += l.parse;
    t.rewrite += l.rewrite;
    t.plan += l.plan;
    t.exec += l.exec;
    t.free += l.free;
    t.targets += l.targets;
    t.rows += l.rows;
    t.cells += l.cells;
    t.totals.push_back(static_cast<double>(l.total));
    counters_.AddDelta(c, Counters{});
  }

  void Emit(Report* report) const {
    double n = 0, parse = 0, rewrite = 0, plan = 0, exec = 0, free = 0,
           targets = 0, rows = 0, cells = 0, unaccounted = 0, query = 0;
    std::vector<double> traced_totals, untraced;
    for (const auto& [q, t] : layers_) {
      const double k = static_cast<double>(t.n);
      n += k;
      parse += t.parse;
      rewrite += t.rewrite;
      plan += t.plan;
      exec += t.exec;
      free += t.free;
      targets += t.targets;
      rows += t.rows;
      cells += t.cells;
      traced_totals.insert(traced_totals.end(), t.totals.begin(), t.totals.end());
      auto it = query_ns_.find(q);
      const double query_mean = it == query_ns_.end() ? 0 : Mean(it->second);
      if (it != query_ns_.end()) {
        untraced.insert(untraced.end(), it->second.begin(), it->second.end());
      }
      // Query() parses inside Rewrite(); the separate ParseSql call only
      // splits that time, so it is not added again.
      const double layer_mean = (t.rewrite + t.plan + t.exec + t.free) / k;
      unaccounted += (query_mean - layer_mean) * k;
      query += query_mean * k;
      char line[256];
      std::snprintf(line, sizeof(line),
                    "Q%-2d Query() %.3f ms = parse %.3f + rewrite %.3f + plan "
                    "%.3f + exec %.3f + result.free %.3f + unaccounted %.3f ms",
                    q, query_mean / 1e6, t.parse / k / 1e6,
                    (static_cast<double>(t.rewrite) - t.parse) / k / 1e6,
                    t.plan / k / 1e6, t.exec / k / 1e6, t.free / k / 1e6,
                    (query_mean - layer_mean) / 1e6);
      report->Note(line);
    }
    const Counters& c = counters_;
    const double per = std::max(n, 1.0);
    report->Add("engine.parser.parse_ms", parse / per / 1e6, "ms");
    report->Add("sinew.rewriter.rewrite_ms", (rewrite - parse) / per / 1e6, "ms");
    report->Add("sinew.rewriter.targets_per_query", targets / per, "count");
    report->Add("engine.planner.plan_ms", plan / per / 1e6, "ms");
    report->Add("engine.bytecode.compile_ms", c.compile_ns / per / 1e6, "ms");
    report->Add("engine.exec.exec_ms", exec / per / 1e6, "ms");
    report->Add("engine.exec.batches_per_query", c.batches / per, "count");
    report->Add("engine.exec.gather_stalls_per_query", c.gather_stalls / per, "count");
    report->Add("common.thread_pool.busy_ms_per_query", c.pool_busy_ns / per / 1e6, "ms");
    report->Add("sinew.extract.reservoir_decodes_per_query", c.decodes / per, "count");
    report->Add("sinew.extract.columnar_hit_ratio",
                Ratio(c.strip_hits, c.strip_hits + c.reservoir_attrs), "ratio");
    report->Add("engine.scan.zone_skips_per_query", c.zone_skips / per, "count");
    report->Add("engine.eval.typed_lane_ratio", Ratio(c.typed, c.typed + c.boxed), "ratio");
    report->Add("engine.eval.fallback_lanes_per_query", c.fallback / per, "count");
    report->Add("engine.result.free_ms", free / per / 1e6, "ms");
    report->Add("engine.result.rows_per_query", rows / per, "count");
    report->Add("engine.result.cells_per_query", cells / per, "count");
    report->Add("sinew.query.unaccounted_ms", unaccounted / per / 1e6, "ms");
    report->Add("sinew.query.rewrite_plan_share", Ratio(rewrite + plan, query), "ratio");
    report->Add("bench.trace_overhead_ratio",
                Ratio(Median(traced_totals), Median(untraced)), "ratio");
  }

 private:
  struct PerTemplate {
    uint64_t n = 0, parse = 0, rewrite = 0, plan = 0, exec = 0, free = 0;
    uint64_t targets = 0, rows = 0, cells = 0;
    std::vector<double> totals;
  };
  std::map<int, std::vector<double>> query_ns_;
  std::map<int, PerTemplate> layers_;
  Counters counters_;
};

/// Runs one SELECT layer by layer through the public functions Query()
/// composes, with a span around each call. Returns false on error.
bool TracedSelect(SinewDb* db, const Request& req,
                  const sinew::engine::ExecOptions& exec, Tracer* tracer,
                  QueryLedger* ledger, Report* report) {
  QueryLedger::Layers l;
  Counters counts;
  bool right = false;
  tracer->NewTrace();
  Tracer::Span root(tracer, "request");
  root.SetDetail("Q" + std::to_string(req.q));
  {
    Tracer::Span span(tracer, "engine.ParseSql");
    auto parsed = sinew::engine::ParseSql(req.sql);
    l.parse = span.End();
    if (!parsed.ok()) return Fail(report, req.sql, parsed.status()), false;
  }
  {
    Tracer::Span rewrite_span(tracer, "sinew.QueryRewriter.Rewrite");
    auto stmt = db->rewriter().Rewrite(req.sql);
    l.rewrite = rewrite_span.End();
    if (!stmt.ok()) return Fail(report, req.sql, stmt.status()), false;
    if (stmt->select == nullptr) {
      return Fail(report, req.sql, Status::InvalidArgument("not a SELECT")), false;
    }
    l.targets = stmt->select->items.size();
    Counters before = Counters::Read();
    Tracer::Span plan_span(tracer, "engine.Database.PlanStatement");
    auto plan = db->engine()->PlanStatement(*stmt->select);
    l.plan = plan_span.End();
    counts.compile_ns = Counters::Read().compile_ns - before.compile_ns;
    if (!plan.ok()) return Fail(report, req.sql, plan.status()), false;
    before = Counters::Read();
    Tracer::Span exec_span(tracer, "engine.ExecutePlan");
    sinew::Result<QueryResult> result =
        sinew::engine::ExecutePlan(**plan, db->engine()->udfs(), exec);
    l.exec = exec_span.End();
    const uint64_t compile_ns = counts.compile_ns;
    counts.AddDelta(Counters::Read(), before);
    counts.compile_ns = compile_ns;
    if (!result.ok()) return Fail(report, req.sql, result.status()), false;
    l.rows = result->rows.size();
    l.cells = l.rows * result->column_names.size();
    right = CheckResult(req.q, *result, req.expect);
    Tracer::Span free_span(tracer, "engine.QueryResult.~QueryResult");
    { QueryResult doomed = std::move(*result); }
    l.free = free_span.End();
  }  // the statement and plan are freed inside the request span, as in Query()
  l.total = root.End();
  ledger->AddLayers(req.q, l, counts);
  if (!right) ++report->wrong;
  return true;
}

/// One untraced closed-loop request through SinewDb::Query. Returns the
/// client latency in ns — the call plus destruction of its result, not the
/// oracle check between them — or 0 after an error.
uint64_t TimedQuery(SinewDb* db, const Request& req, Report* report) {
  std::optional<sinew::Result<QueryResult>> result;
  const uint64_t t0 = NowNs();
  result.emplace(db->Query(req.sql));
  const uint64_t t1 = NowNs();
  if (!result->ok()) return Fail(report, req.sql, result->status()), 0;
  if (!CheckResult(req.q, **result, req.expect)) ++report->wrong;
  const uint64_t t2 = NowNs();
  result.reset();
  const uint64_t t3 = NowNs();
  return (t1 - t0) + (t3 - t2);
}

// ----------------------------------------------------- commit ledger

/// Per-layer accounting of commits (bulk load or ingest), traced runs.
struct CommitLedger {
  uint64_t commits = 0, plain_commits = 0;
  uint64_t parse_ns = 0, apply_ns = 0;  // apply: plain commits only
  CountingEnv::Totals env;              // all commits
  uint64_t flushes = 0, flush_ns = 0, flush_bytes = 0;

  void Emit(Report* report) const {
    const double per = std::max<double>(static_cast<double>(commits), 1);
    report->Add("json.parse_ms_per_commit", parse_ns / per / 1e6, "ms");
    report->Add("sinew.loader.apply_ms_per_commit",
                apply_ns / std::max<double>(plain_commits, 1) / 1e6, "ms");
    report->Add("common.env.sync_ms_per_commit", env.sync_ns / per / 1e6, "ms");
    report->Add("common.env.fsyncs_per_commit", env.fsyncs / per, "count");
    report->Add("common.wal.bytes_per_commit", env.wal_bytes_written / per, "B");
    report->Add("sinew.durable.flushes", static_cast<double>(flushes), "count");
    report->Add("sinew.durable.flush_s", NsToS(flush_ns), "s");
    report->Add("sinew.durable.flush_bytes_written",
                static_cast<double>(flush_bytes), "B");
  }
};

/// One commit of a JSON-lines batch. Untraced: DurableDb::LoadJsonLines.
/// Traced: json::ParseLines and SinewDb::LoadDocuments (the hooked commit)
/// as separate spans. Returns the commit latency in ns, or 0 on error.
uint64_t Commit(DurableDb* db, const std::string& batch, CountingEnv* env,
                Tracer* tracer, CommitLedger* ledger, bool* flushed,
                Report* report) {
  ++report->attempted;
  const uint64_t flushes_before = db->flush_count();
  uint64_t latency = 0;
  if (!tracer->enabled()) {
    const uint64_t t0 = NowNs();
    auto loaded = db->LoadJsonLines(kTable, batch);
    latency = NowNs() - t0;
    if (!loaded.ok()) return Fail(report, "commit", loaded.status()), 0;
  } else {
    tracer->NewTrace();
    Tracer::Span root(tracer, "commit");
    Tracer::Span parse(tracer, "json.ParseLines");
    auto docs = sinew::json::ParseLines(batch);
    const uint64_t parse_ns = parse.End();
    if (!docs.ok()) return Fail(report, "parse", docs.status()), 0;
    const CountingEnv::Totals env_before = env->totals();
    Tracer::Span load(tracer, "sinew.SinewDb.LoadDocuments");
    auto loaded = db->db()->LoadDocuments(kTable, *docs);
    const uint64_t load_ns = load.End();
    const CountingEnv::Totals env_delta = env->totals() - env_before;
    if (!loaded.ok()) return Fail(report, "commit", loaded.status()), 0;
    latency = root.End();
    ++ledger->commits;
    ledger->parse_ns += parse_ns;
    ledger->env += env_delta;
    if (db->flush_count() != flushes_before) {
      ledger->flushes += db->flush_count() - flushes_before;
      ledger->flush_ns += load_ns;
      ledger->flush_bytes += env_delta.bytes_written - env_delta.wal_bytes_written;
    } else {
      ++ledger->plain_commits;
      ledger->apply_ns += load_ns > env_delta.io_ns ? load_ns - env_delta.io_ns : 0;
    }
  }
  *flushed = db->flush_count() != flushes_before;
  return latency;
}

/// The in-memory setup path, layer by layer (traced runs only): parse each
/// batch, SinewDb::LoadDocuments, AnalyzeSchema, MaterializeAll and
/// BuildColumnarSegments on a plain SinewDb holding the whole dataset.
bool TracedInMemorySetup(const sinew::SinewOptions& options, const Dataset& d,
                         Tracer* tracer, Report* report) {
  SinewDb db(options);
  tracer->NewTrace();
  Tracer::Span root(tracer, "setup.in_memory");
  uint64_t load_ns = 0;
  for (const std::string& batch : d.batches) {
    auto docs = sinew::json::ParseLines(batch);
    if (!docs.ok()) return Fail(report, "parse", docs.status()), false;
    Tracer::Span span(tracer, "sinew.SinewDb.LoadDocuments");
    auto loaded = db.LoadDocuments(kTable, *docs);
    load_ns += span.End();
    if (!loaded.ok()) return Fail(report, "load", loaded.status()), false;
  }
  Tracer::Span analyze(tracer, "sinew.SinewDb.AnalyzeSchema");
  auto decisions = db.AnalyzeSchema(kTable);
  const uint64_t analyze_ns = analyze.End();
  Tracer::Span materialize(tracer, "sinew.SinewDb.MaterializeAll");
  Status mat = db.MaterializeAll(kTable);
  const uint64_t materialize_ns = materialize.End();
  Tracer::Span build(tracer, "sinew.SinewDb.BuildColumnarSegments");
  Status built = db.BuildColumnarSegments(kTable);
  const uint64_t build_ns = build.End();
  if (!decisions.ok()) return Fail(report, "analyze", decisions.status()), false;
  if (!mat.ok()) return Fail(report, "materialize", mat), false;
  if (!built.ok()) return Fail(report, "build segments", built), false;
  report->Add("sinew.loader.load_s", NsToS(load_ns), "s");
  report->Add("sinew.schema_analyzer.analyze_s", NsToS(analyze_ns), "s");
  report->Add("sinew.materializer.materialize_s", NsToS(materialize_ns), "s");
  report->Add("sinew.columnar_shredder.build_s", NsToS(build_ns), "s");
  return true;
}

struct OpenTimed {
  std::unique_ptr<DurableDb> db;
  uint64_t ns = 0;
};

sinew::Result<OpenTimed> TimedOpen(const sinew::DurableDbOptions& options,
                                   const std::string& dir, CountingEnv* env,
                                   Tracer* tracer) {
  Tracer::Span span(tracer, "sinew.DurableDb.Open");
  auto db = DurableDb::Open(dir, options, env);
  const uint64_t ns = span.End();
  if (!db.ok()) return db.status();
  return OpenTimed{std::move(*db), ns};
}

Status TimedClose(DurableDb* db, Tracer* tracer) {
  Tracer::Span span(tracer, "sinew.DurableDb.Close");
  return db->Close();
}

sinew::Result<int64_t> CountRows(SinewDb* db, const std::string& where) {
  auto r = db->Query("SELECT COUNT(*) FROM nobench_main" + where);
  if (!r.ok()) return r.status();
  if (r->rows.size() != 1 || !r->rows[0][0].is_int()) {
    return Status::Internal("COUNT(*) returned no integer");
  }
  return r->rows[0][0].int_value();
}

void CheckCount(SinewDb* db, const std::string& where, uint64_t want,
                const std::string& label, Report* report) {
  ++report->attempted;
  auto got = CountRows(db, where);
  if (!got.ok()) return Fail(report, label, got.status());
  if (static_cast<uint64_t>(*got) != want) {
    ++report->wrong;
    report->Note("WRONG " + label + ": " + std::to_string(*got) + " != " +
                 std::to_string(want));
  }
}

void AddSettings(const sinew::DurableDbOptions& options,
                 const char* flush_policy, Report* report) {
  report->info["gather_degree"] = std::to_string(options.sinew.parallelism);
  switch (options.wal.sync_policy) {
    case sinew::WalSyncPolicy::kEveryCommit:
      report->info["fsync_policy"] = "every_commit";
      break;
    case sinew::WalSyncPolicy::kGrouped:
      report->info["fsync_policy"] = "grouped";
      break;
    case sinew::WalSyncPolicy::kNever:
      report->info["fsync_policy"] = "never_until_flush";
      break;
  }
  report->info["memtable_flush_bytes"] =
      std::to_string(options.memtable_flush_bytes);
  report->info["flush"] = flush_policy;
}

bool WriteTrace(const Options& o, const Tracer& tracer, Report* report) {
  const std::string path = o.work_dir + "/trace.json";
  if (!tracer.WriteChromeTrace(path)) {
    return Fail(report, "trace", Status::IOError("cannot write ", path)), false;
  }
  report->info["trace_file"] = path;
  report->info["trace_spans"] = std::to_string(tracer.span_count());
  return true;
}

/// p99 of each run of kCommitSpan consecutive commits; the whole sample's
/// p99 when it holds less than one span.
std::vector<double> SpanP99s(const std::vector<double>& commit_ms) {
  if (commit_ms.size() < kCommitSpan) return {Quantile(commit_ms, 0.99)};
  std::vector<double> p99s;
  for (size_t i = 0; i + kCommitSpan <= commit_ms.size(); i += kCommitSpan) {
    p99s.push_back(Quantile(
        std::vector<double>(commit_ms.begin() + i, commit_ms.begin() + i + kCommitSpan),
        0.99));
  }
  return p99s;
}

/// "label: a b c ..." with each sample to `digits` decimals, for the report.
std::string SampleLine(const std::string& label, const std::vector<double>& v,
                       int digits) {
  std::string line = label + ":";
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), " %.*f", digits, x);
    line += buf;
  }
  return line;
}

}  // namespace

// ------------------------------------------- nobench_project / _star

int RunNoBenchQueries(const Options& o, bool star, Report* report) {
  const uint64_t docs = o.docs != 0 ? o.docs : kQueryDocs;
  // The load leaves the WAL unsynced and is made durable by the closing
  // Flush() (image write + fsync), as a bulk loader would: per-commit fsync
  // latency varies between runs far more than the query work on shared
  // hosts, and durable_ingest is the workload that measures it.
  const sinew::DurableDbOptions db_options =
      DbOptions(o, sinew::WalSyncPolicy::kNever);
  AddSettings(db_options, "memtable threshold during load, then one Flush()",
              report);
  report->info["docs"] = std::to_string(docs);
  Dataset data = MakeDataset(docs, o.seed, kCommitDocs, o.gather_degree);
  const std::vector<int> templates =
      star ? std::vector<int>{5, 6, 7, 8, 9} : std::vector<int>{1, 2, 3, 4, 10, 11};

  // Every request's literals and expected answer, before anything is timed.
  sinew::Rng rng(o.seed * 0x9e3779b97f4a7c15ull + (star ? 2 : 1));
  std::vector<Request> pool;
  for (size_t k = 0; k < kRequestsPerTemplate * templates.size(); ++k) {
    pool.push_back(data.index->Draw(templates[k % templates.size()], &rng, docs));
    if (o.perturb_oracle && k % 7 == 3) ++pool.back().expect.rows;
  }

  Tracer tracer(o.trace);
  CountingEnv env;
  const std::string dir = o.work_dir + "/db";
  if (o.trace && !TracedInMemorySetup(db_options.sinew, data, &tracer, report)) {
    return 1;
  }

  // The run is kSetupRepeats cycles of: set-up, then a share of the query
  // window in slices, each followed by a restart. Interleaving spreads every
  // metric's samples over the whole run.
  // Set-up builds a ready database: the documents go through the WAL in
  // 8-doc commits (memtable flushes trigger as they do), then one Flush() so
  // every row is analyzed, materialized and covered by strips. Traced runs
  // make one cycle and alternate whole template passes between Query()
  // (untraced reference) and the layer-by-layer path with spans.
  const int cycles = o.trace ? 1 : kSetupRepeats;
  const sinew::engine::ExecOptions exec = db_options.sinew.exec;
  std::vector<double> setup_s, docs_per_s, stall_s, write_amp, commit_ms,
      recovery_s, latency_ms;
  std::map<int, std::vector<double>> per_template_ms;
  CommitLedger commits;
  QueryLedger ledger;
  uint64_t completed = 0, replayed = 0;
  double window_s = 0, peak_rss = 0, space_amp = 0, data_bytes = 0;
  size_t cursor = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::filesystem::remove_all(dir);
    tracer.NewTrace();
    Tracer::Span setup_span(&tracer, "setup.durable");
    const CountingEnv::Totals env0 = env.totals();
    const uint64_t t0 = NowNs();
    auto opened = TimedOpen(db_options, dir, &env, &tracer);
    if (!opened.ok()) return Fail(report, "open", opened.status()), 1;
    std::unique_ptr<DurableDb> db = std::move(opened->db);
    uint64_t stall = 0;
    const uint64_t load0 = NowNs();
    for (const std::string& batch : data.batches) {
      bool flushed = false;
      const uint64_t ns = Commit(db.get(), batch, &env, &tracer, &commits,
                                 &flushed, report);
      if (ns == 0) return 1;
      commit_ms.push_back(NsToMs(ns));
      if (flushed) stall += ns;
    }
    const uint64_t load_ns = NowNs() - load0;
    {
      Tracer::Span span(&tracer, "sinew.DurableDb.Flush");
      const CountingEnv::Totals before = env.totals();
      Status flushed = db->Flush();
      const uint64_t ns = span.End();
      if (!flushed.ok()) return Fail(report, "flush", flushed), 1;
      const CountingEnv::Totals delta = env.totals() - before;
      ++commits.flushes;
      commits.flush_ns += ns;
      commits.flush_bytes += delta.bytes_written - delta.wal_bytes_written;
    }
    setup_s.push_back(NsToS(NowNs() - t0));
    setup_span.End();
    docs_per_s.push_back(static_cast<double>(docs) / NsToS(load_ns));
    stall_s.push_back(NsToS(stall));
    write_amp.push_back(Ratio((env.totals() - env0).bytes_written, data.json_bytes));
    {
      std::vector<double> mine(commit_ms.end() - data.batches.size(), commit_ms.end());
      char line[160];
      std::snprintf(line, sizeof(line),
                    "cycle %d set-up %.3f s, %.0f docs/s, commit p50 %.3f ms, "
                    "stall %.3f s",
                    cycle, setup_s.back(), docs_per_s.back(), Median(mine),
                    stall_s.back());
      report->Note(line);
    }

    // The cycle's share of the timed window comes in kRestartsPerCycle
    // slices, each followed by a restart: Close (nothing is unflushed) and a
    // timed Open. Spreading the restarts over the window samples recovery
    // under the same host conditions as the queries. Before each slice, one
    // warm-up pass over the templates (checked, not timed).
    const uint64_t slice_ns =
        static_cast<uint64_t>(o.seconds / cycles / kRestartsPerCycle * 1e9);
    for (int slice = 0; slice < kRestartsPerCycle; ++slice) {
      SinewDb* sdb = db->db();
      for (size_t k = 0; k < templates.size(); ++k, ++cursor) {
        ++report->attempted;
        TimedQuery(sdb, pool[cursor % pool.size()], report);
      }
      // One client, closed loop, cycling the templates.
      const uint64_t window0 = NowNs();
      const uint64_t window_end = window0 + slice_ns;
      while (NowNs() < window_end) {
        const Request& req = pool[cursor % pool.size()];
        const bool traced_pass = o.trace && (cursor / templates.size()) % 2 == 1;
        ++cursor;
        ++report->attempted;
        if (traced_pass) {
          if (TracedSelect(sdb, req, exec, &tracer, &ledger, report)) ++completed;
          continue;
        }
        const uint64_t ns = TimedQuery(sdb, req, report);
        if (ns == 0) continue;
        ++completed;
        latency_ms.push_back(NsToMs(ns));
        per_template_ms[req.q].push_back(NsToMs(ns));
        ledger.AddQueryCall(req.q, ns);
      }
      window_s += NsToS(NowNs() - window0);
      peak_rss = std::max(peak_rss, PeakRssMb());

      if (cycle + 1 == cycles && slice + 1 == kRestartsPerCycle) {
        // Cross-system check of each template's canonical result (untimed).
        std::vector<Request> firsts(pool.begin(), pool.begin() + templates.size());
        std::vector<sinew::Value> all = nb::Generate(data.config);
        for (const std::string& problem : CrossCheckWithDocStore(sdb, all, firsts)) {
          ++report->wrong;
          report->Note("CROSS-CHECK " + problem);
        }
        report->attempted += firsts.size();
      }

      Status closed = TimedClose(db.get(), &tracer);
      db.reset();
      if (!closed.ok()) return Fail(report, "close", closed), 1;
      tracer.NewTrace();
      auto reopened = TimedOpen(db_options, dir, &env, &tracer);
      if (!reopened.ok()) return Fail(report, "reopen", reopened.status()), 1;
      db = std::move(reopened->db);
      recovery_s.push_back(NsToS(reopened->ns));
      replayed += db->open_info().replayed_records;
    }
    CheckCount(db->db(), "", docs, "COUNT(*) after restart", report);
    space_amp = Ratio(DirBytes(dir), data.json_bytes);
    if (auto table = db->db()->engine()->catalog()->GetTable(kTable); table.ok()) {
      data_bytes = static_cast<double>((*table)->DataBytes());
    }
    (void)db->Close();
    db.reset();
    std::filesystem::remove_all(dir);
  }
  for (const auto& [q, ms] : per_template_ms) {
    char line[160];
    std::snprintf(line, sizeof(line), "Q%-2d untraced p50 %.3f ms p95 %.3f ms (n=%zu)",
                  q, Median(ms), Quantile(ms, 0.95), ms.size());
    report->Note(line);
  }

  report->Note(SampleLine("recovery_s samples", recovery_s, 3));
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("queries_per_s", completed / window_s, "1/s");
  report->Add("query_p50_ms", Median(latency_ms), "ms");
  report->Add("query_p95_ms", Quantile(latency_ms, 0.95), "ms");
  report->Add("docs_per_s", Median(docs_per_s), "1/s");
  report->Add("commit_p50_ms", Median(commit_ms), "ms");
  report->Add("commit_p99_ms", Median(SpanP99s(commit_ms)), "ms");
  report->Add("write_stall_s", Median(stall_s), "s");
  report->Add("recovery_s", *std::min_element(recovery_s.begin(), recovery_s.end()), "s");
  report->Add("recovery_p50_s", Median(recovery_s), "s");
  report->Add("write_amp", Median(write_amp), "ratio");
  report->Add("space_amp", space_amp, "ratio");
  report->Add("peak_rss_mb", peak_rss, "MB");
  report->info["query_samples"] = std::to_string(latency_ms.size());
  report->info["commit_samples"] = std::to_string(commit_ms.size());
  report->info["setup_samples"] = std::to_string(setup_s.size());

  if (o.trace) {
    ledger.Emit(report);
    commits.Emit(report);
    report->Add("sinew.durable.replayed_records", static_cast<double>(replayed), "count");
    report->Add("engine.table.data_bytes_per_input_byte",
                Ratio(data_bytes, data.json_bytes), "ratio");
    if (!WriteTrace(o, tracer, report)) return 1;
  }
  return 0;
}

// ------------------------------------------------------ durable_ingest

int RunDurableIngest(const Options& o, Report* report) {
  const uint64_t docs = o.docs != 0 ? o.docs : kIngestDocs;
  const sinew::DurableDbOptions db_options =
      DbOptions(o, sinew::WalSyncPolicy::kEveryCommit);
  AddSettings(db_options, "memtable threshold only; Close() without flush",
              report);
  report->info["docs"] = std::to_string(docs);
  Tracer tracer(o.trace);
  CountingEnv env;
  const std::string dir = o.work_dir + "/db";

  // Set-up: the database starts empty, so set-up is preparing the input
  // (generate, serialize to 8-doc JSON-lines commits, index for the oracle)
  // plus Open and Close of the empty directory. Opening an empty directory
  // alone takes tens of microseconds, too little to time steadily.
  // Repeated; the last copy of the input is used.
  std::vector<double> setup_s;
  Dataset data;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupRepeats); ++rep) {
    const uint64_t t0 = NowNs();
    data = MakeDataset(docs, o.seed, kCommitDocs, o.gather_degree);
    std::filesystem::remove_all(dir);
    tracer.NewTrace();
    auto opened = TimedOpen(db_options, dir, &env, &tracer);
    if (!opened.ok()) return Fail(report, "open", opened.status()), 1;
    Status closed = TimedClose(opened->db.get(), &tracer);
    setup_s.push_back(NsToS(NowNs() - t0));
    if (!closed.ok()) return Fail(report, "close", closed), 1;
  }
  const size_t commits_total = data.batches.size();

  // Reads and updates of every round, against the acknowledged prefix.
  struct Round {
    Request aggregate, star, update;
  };
  std::vector<Round> rounds;
  std::set<uint32_t> updated;  // documents some UPDATE matched
  sinew::Rng rng(o.seed * 0x9e3779b97f4a7c15ull + 3);
  for (size_t c = kIngestCommitsPerRound; c <= commits_total;
       c += kIngestCommitsPerRound) {
    const size_t prefix = std::min<size_t>(c * kCommitDocs, docs);
    std::vector<uint32_t> matched;
    Round r{data.index->Draw(10, &rng, prefix),
            data.index->Draw(9, &rng, prefix, /*exclude_group=*/58),
            data.index->DrawUpdate(&rng, prefix, &matched)};
    if (o.perturb_oracle && rounds.size() % 7 == 3) ++r.aggregate.expect.rows;
    updated.insert(matched.begin(), matched.end());
    rounds.push_back(std::move(r));
  }
  if (o.trace && !TracedInMemorySetup(db_options.sinew, data, &tracer, report)) return 1;

  const sinew::engine::ExecOptions exec = db_options.sinew.exec;
  std::vector<double> commit_ms, query_ms, docs_per_s, queries_per_s, stall_s,
      recovery_s, write_amp, space_amp;
  CommitLedger commits;
  QueryLedger ledger;
  double peak_rss = 0, data_bytes = 0;
  uint64_t replayed = 0;
  const uint64_t run_end = NowNs() + static_cast<uint64_t>(o.seconds * 1e9);
  // Whole ingest cycles while another one fits in the window (at least one;
  // traced runs make exactly one and alternate traced and untraced read
  // rounds).
  uint64_t cycle_ns = 0;
  do {
    const uint64_t cycle0 = NowNs();
    std::filesystem::remove_all(dir);
    const CountingEnv::Totals env0 = env.totals();
    tracer.NewTrace();
    auto opened = TimedOpen(db_options, dir, &env, &tracer);
    if (!opened.ok()) return Fail(report, "open", opened.status()), 1;
    std::unique_ptr<DurableDb> db = std::move(opened->db);
    SinewDb* sdb = db->db();
    uint64_t stall = 0, reads = 0;
    const uint64_t t0 = NowNs();
    for (size_t c = 0; c < commits_total; ++c) {
      bool flushed = false;
      const uint64_t ns = Commit(db.get(), data.batches[c], &env, &tracer,
                                 &commits, &flushed, report);
      if (ns == 0) return 1;
      commit_ms.push_back(NsToMs(ns));
      if (flushed) stall += ns;
      if ((c + 1) % kIngestCommitsPerRound != 0) continue;
      const size_t round_no = (c + 1) / kIngestCommitsPerRound - 1;
      const Round& round = rounds[round_no];
      const bool traced_round = o.trace && round_no % 2 == 1;
      for (const Request* req : {&round.aggregate, &round.star}) {
        ++report->attempted;
        if (traced_round) {
          if (TracedSelect(sdb, *req, exec, &tracer, &ledger, report)) ++reads;
          continue;
        }
        const uint64_t qns = TimedQuery(sdb, *req, report);
        if (qns == 0) continue;
        ++reads;
        query_ms.push_back(NsToMs(qns));
        ledger.AddQueryCall(req->q, qns);
      }
      // The UPDATE is a logged commit: it may trigger a flush too.
      ++report->attempted;
      const uint64_t flushes_before = db->flush_count();
      const uint64_t qns = TimedQuery(sdb, round.update, report);
      if (db->flush_count() != flushes_before) stall += qns;
      if (qns == 0) continue;
      ++reads;
      query_ms.push_back(NsToMs(qns));
    }
    const double ingest_s = NsToS(NowNs() - t0);
    Status closed = TimedClose(db.get(), &tracer);  // no flush: recovery replays
    db.reset();
    if (!closed.ok()) return Fail(report, "close", closed), 1;
    write_amp.push_back(Ratio((env.totals() - env0).bytes_written, data.json_bytes));
    docs_per_s.push_back(static_cast<double>(docs) / ingest_s);
    queries_per_s.push_back(static_cast<double>(reads) / ingest_s);
    stall_s.push_back(NsToS(stall));

    // Recovery: a timed Open of the unflushed directory (replay + recovery
    // flush). Repeated on fresh copies so every Open replays the same log.
    // The copies are hard links: Open only reads existing files and writes
    // new ones (temp file + rename), so the closed directory stays intact,
    // and no copied data is written back to storage while Open is timed.
    // Every recovery must replay the same records and return every row.
    const std::string copy = dir + "-recovering";
    for (int rep = 0; rep < kRecoveryRepeats; ++rep) {
      std::error_code ec;
      std::filesystem::remove_all(copy);
      std::filesystem::copy(dir, copy,
                            std::filesystem::copy_options::recursive |
                                std::filesystem::copy_options::create_hard_links,
                            ec);
      if (ec) return Fail(report, "copy", Status::IOError(ec.message())), 1;
      tracer.NewTrace();
      auto reopened = TimedOpen(db_options, copy, &env, &tracer);
      if (!reopened.ok()) return Fail(report, "recovery", reopened.status()), 1;
      std::unique_ptr<DurableDb> recovered = std::move(reopened->db);
      recovery_s.push_back(NsToS(reopened->ns));
      const sinew::DurableOpenInfo& info = recovered->open_info();
      ++report->attempted;
      if (info.used_fallback || (rep > 0 && info.replayed_records != replayed)) {
        ++report->wrong;
        report->Note("WRONG recovery " + std::to_string(rep) + ": replayed " +
                     std::to_string(info.replayed_records) + " records " +
                     info.notes);
      }
      replayed = info.replayed_records;
      peak_rss = std::max(peak_rss, PeakRssMb());
      CheckCount(recovered->db(), "", docs, "COUNT(*) after recovery", report);
      CheckCount(recovered->db(), " WHERE sparse_588 = 'DUMMY'", updated.size(),
                 "updated rows after recovery", report);
      if (rep + 1 == kRecoveryRepeats) {
        space_amp.push_back(Ratio(DirBytes(copy), data.json_bytes));
        auto table = recovered->db()->engine()->catalog()->GetTable(kTable);
        if (table.ok()) data_bytes = static_cast<double>((*table)->DataBytes());
      }
      (void)recovered->Close();
    }
    std::filesystem::remove_all(copy);
    std::filesystem::remove_all(dir);
    cycle_ns = NowNs() - cycle0;
  } while (!o.trace && NowNs() + cycle_ns < run_end);

  report->Note(SampleLine("recovery_s samples", recovery_s, 3));
  report->Note("replayed records per recovery " + std::to_string(replayed));
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("queries_per_s", Median(queries_per_s), "1/s");
  report->Add("query_p50_ms", Median(query_ms), "ms");
  report->Add("query_p95_ms", Quantile(query_ms, 0.95), "ms");
  report->Add("docs_per_s", Median(docs_per_s), "1/s");
  report->Add("commit_p50_ms", Median(commit_ms), "ms");
  report->Add("commit_p99_ms", Median(SpanP99s(commit_ms)), "ms");
  report->Add("write_stall_s", Median(stall_s), "s");
  report->Add("recovery_s", *std::min_element(recovery_s.begin(), recovery_s.end()), "s");
  report->Add("recovery_p50_s", Median(recovery_s), "s");
  report->Add("write_amp", Median(write_amp), "ratio");
  report->Add("space_amp", Median(space_amp), "ratio");
  report->Add("peak_rss_mb", peak_rss, "MB");
  report->info["cycles"] = std::to_string(docs_per_s.size());
  report->info["query_samples"] = std::to_string(query_ms.size());
  report->info["commit_samples"] = std::to_string(commit_ms.size());

  if (o.trace) {
    ledger.Emit(report);
    commits.Emit(report);
    report->Add("sinew.durable.replayed_records", static_cast<double>(replayed), "count");
    report->Add("engine.table.data_bytes_per_input_byte",
                Ratio(data_bytes, data.json_bytes), "ratio");
    if (!WriteTrace(o, tracer, report)) return 1;
  }
  return 0;
}

}  // namespace perfbench
