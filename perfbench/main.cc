// sinew_perfbench: runs one benchmark workload and prints its metrics.
//
//   sinew_perfbench --workload nobench_project|nobench_star|durable_ingest
//                   --seed N --seconds S --trace 0|1 [--work-dir DIR]
//                   [--docs N] [--perturb-oracle]
//
// Human-readable lines first; the last line is one JSON object with every
// metric (value and unit), the operation counts and the run settings.
// perfbench/run.py builds this binary and is the normal way to run it.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "sinew_perfbench: %s\nusage: sinew_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--docs N] "
               "[--perturb-oracle]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  o.gather_degree = static_cast<int>(std::min(4u, cores));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--perturb-oracle") {
      o.perturb_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else if (arg == "--docs") {
      o.docs = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (o.seconds <= 0) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);

  perfbench::Report report;
  int rc = 0;
  if (o.workload == "nobench_project" || o.workload == "nobench_star") {
    rc = perfbench::RunNoBenchQueries(o, o.workload == "nobench_star", &report);
  } else if (o.workload == "durable_ingest") {
    rc = perfbench::RunDurableIngest(o, &report);
  } else {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  report.info["workload"] = o.workload;
  report.info["seed"] = std::to_string(o.seed);
  report.info["trace"] = o.trace ? "1" : "0";
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
  report.info["sinew_metrics"] = PERFBENCH_METRICS;

  for (const std::string& line : report.notes) std::printf("# %s\n", line.c_str());
  const double errors = static_cast<double>(report.failed + report.wrong);
  const double error_rate =
      report.attempted == 0 ? 1.0 : errors / static_cast<double>(report.attempted);
  report.Add("error_rate", error_rate, "ratio");
  for (const auto& m : report.metrics) {
    std::printf("%-44s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"attempted\":" + std::to_string(report.attempted) +
                     ",\"failed\":" + std::to_string(report.failed) +
                     ",\"wrong\":" + std::to_string(report.wrong) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", report.metrics[i].value);
    json += (i == 0 ? "" : ",") + JsonString(report.metrics[i].name) +
            ":{\"value\":" + value +
            ",\"unit\":" + JsonString(report.metrics[i].unit) + "}";
  }
  json += "},\"info\":{";
  bool first = true;
  for (const auto& [k, v] : report.info) {
    json += (first ? "" : ",") + JsonString(k) + ":" + JsonString(v);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rc;
}
