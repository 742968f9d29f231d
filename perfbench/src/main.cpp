// perfbench: runs one named workload of the repository benchmark and prints
// its result as one JSON line (the last line of standard output).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Workloads: fit_sparse3d, fit_dense14d, update_churn, serve_classify.
// perfbench/run.py builds this binary and turns its result into the
// benchmark's output; perfbench/README.md describes workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "obs/report.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload")
        o.workload = v;
      else if (flag == "--seed")
        o.seed = std::stoull(v);
      else if (flag == "--seconds")
        o.seconds = std::stod(v);
      else if (flag == "--trace")
        o.trace = std::stoi(v) != 0;
      else if (flag == "--trace-dir")
        o.trace_dir = v;
      else
        usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.trace && o.trace_dir.empty()) usage("--trace 1 needs --trace-dir");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options o = parse(argc, argv);
  try {
    const std::string host = perfbench::host_stamp_json();
    std::printf("host %s\n", host.c_str());
    perfbench::Sheet sh;
    if (o.workload == "fit_sparse3d")
      sh = perfbench::run_fit_sparse3d(o);
    else if (o.workload == "fit_dense14d")
      sh = perfbench::run_fit_dense14d(o);
    else if (o.workload == "update_churn")
      sh = perfbench::run_update_churn(o);
    else if (o.workload == "serve_classify")
      sh = perfbench::run_serve_classify(o);
    else
      usage(("unknown workload " + o.workload).c_str());
    sh.set("error_rate",
           static_cast<double>(sh.failed) / static_cast<double>(sh.attempted),
           "frac");

    udb::obs::JsonWriter w;
    w.begin_object();
    w.kv("workload", o.workload);
    w.kv("seed", o.seed);
    w.kv("trace", o.trace);
    w.kv("attempted", sh.attempted);
    w.kv("failed", sh.failed);
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, vu] : sh.metrics()) {
      w.key(name.c_str());
      w.begin_object();
      w.kv("value", vu.first);
      w.kv("unit", vu.second);
      w.end_object();
    }
    w.end_object();
    w.key("repeatable");
    w.begin_object();
    for (const auto& [name, v] : sh.repeatable) w.kv(name.c_str(), v);
    w.end_object();
    w.kv("input_digest", sh.input_digest);
    w.key("failures");
    w.begin_array();
    for (const std::string& f : sh.failures()) w.value(f);
    w.end_array();
    w.end_object();
    // The host stamp is already JSON; splice it in as the last member.
    std::string out = w.str();
    out.pop_back();
    out += ",\"host\":" + host + "}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
}
