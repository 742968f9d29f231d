#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/simd.hpp"
#include "common/sysinfo.hpp"
#include "obs/report.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Sheet::set(const std::string& name, double value, const char* unit) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Sheet::fail(std::string why) {
  ++failed;
  if (failures_.size() < 8) failures_.push_back(std::move(why));
}

void note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::uint32_t SpanLog::open(const char* name, const char* layer) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{name, layer, stack_.empty() ? kNoParent : stack_.back(),
                        clock_.now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id) {
  spans_[id].end_ns = clock_.now_ns();
  stack_.pop_back();
}

void SpanLog::write(const Options& o, const char* workload) const {
  udb::obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", workload);
  w.kv("seed", o.seed);
  // Chrome trace_event "X" events: the benchmark's spans carry their own id
  // and their parent's; the program's spans are nested by time.
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.kv("ts", static_cast<double>(s.start_ns) / 1e3);
    w.kv("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.key("args");
    w.begin_object();
    w.kv("id", static_cast<std::uint64_t>(i));
    if (s.parent == kNoParent)
      w.kv("parent", "none");
    else
      w.kv("parent", static_cast<std::uint64_t>(s.parent));
    w.kv("layer", s.layer);
    w.kv("source", "benchmark");
    w.end_object();
    w.end_object();
  }
  for (const udb::obs::TraceEvent& e : clock_.events()) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", 1 + e.tid);
    w.kv("ts", static_cast<double>(e.start_ns) / 1e3);
    w.kv("dur", static_cast<double>(e.dur_ns) / 1e3);
    w.key("args");
    w.begin_object();
    w.kv("source", "program");
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string path = o.trace_dir + "/" + workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << w.str() << '\n';
  if (!out.flush())
    throw std::runtime_error("cannot write the span log " + path);
}

double total_seconds(const SpanLog& log, const char* name) {
  std::uint64_t ns = 0;
  for (const SpanLog::Span& s : log.spans())
    if (std::string_view(s.name) == name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) / 1e9;
}

double total_seconds(const udb::obs::Tracer& tracer, const char* name) {
  std::uint64_t ns = 0;
  for (const udb::obs::TraceEvent& e : tracer.events())
    if (std::string_view(e.name) == name) ns += e.dur_ns;
  return static_cast<double>(ns) / 1e9;
}

bool same_clustering(const udb::ClusteringResult& a,
                     const udb::ClusteringResult& b) {
  return a.label == b.label && a.is_core == b.is_core;
}

double reach_len_mean(const udb::MuRTree& tree) {
  if (tree.num_mcs() == 0) return 0.0;
  std::size_t reach = 0;
  for (udb::McId z = 0; z < tree.num_mcs(); ++z)
    reach += tree.mc(z).reach.size();
  return static_cast<double>(reach) / static_cast<double>(tree.num_mcs());
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

BestTimes::BestTimes(std::size_t ops)
    : best_(ops, std::numeric_limits<double>::infinity()), reps_(ops, 0) {}

void BestTimes::add(std::size_t op, double seconds) {
  best_[op] = std::min(best_[op], seconds);
  ++reps_[op];
}

std::size_t BestTimes::min_reps() const {
  return reps_.empty() ? 0 : *std::min_element(reps_.begin(), reps_.end());
}

void set_op_metrics(Sheet& sh, const BestTimes& t) {
  if (t.min_reps() == 0)
    throw std::logic_error("an operation was never timed");
  sh.set("op_p50_us", median(t.best()) * 1e6, "us");
  sh.set("ops_per_s", static_cast<double>(t.best().size()) / sum(t.best()),
         "1/s");
}

void reset_peak_rss() {
  // "5" resets the VmHWM high-water mark to the current RSS (Linux >= 4.0).
  // Where the kernel refuses, VmHWM stays the process-lifetime peak.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  return static_cast<double>(udb::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

// A fixed amount of integer work that the compiler cannot fold away.
std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Effective parallelism: the same spin on one thread, then on every
// reported CPU at once. nproc threads finishing in the single-thread time
// would be nproc effective cores; a time-shared host shows fewer.
double effective_parallelism(unsigned nproc) {
  constexpr std::uint64_t kIters = 30'000'000;
  std::atomic<std::uint64_t> sink{0};
  Stopwatch one;
  sink += spin(kIters);
  const double t1 = one.seconds();
  Stopwatch all;
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < nproc; ++i)
    threads.emplace_back([&sink] { sink += spin(kIters); });
  for (auto& t : threads) t.join();
  const double tn = all.seconds();
  return sink.load() == 1 ? 0.0 : static_cast<double>(nproc) * t1 / tn;
}

}  // namespace

std::string host_stamp_json() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  udb::obs::JsonWriter w;
  w.begin_object();
  w.kv("cpu_model", cpu_model());
  w.kv("simd_target", udb::simd_target_name(udb::active_simd_target()));
  w.kv("nproc", nproc);
  w.kv("effective_parallelism", effective_parallelism(nproc));
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.end_object();
  return w.str();
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

}  // namespace perfbench
