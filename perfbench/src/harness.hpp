// Shared pieces of the perfbench workloads: the run options, the sheet of
// metrics a run fills, the benchmark's own span log, percentiles, the peak
// memory window and the host stamp.
//
// The benchmark records its spans from its own files, around the calls it
// makes into each layer's public functions; the program under test gains no
// instrumentation for it. Spans sit in memory and are written out once, when
// the run ends.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/murtree.hpp"
#include "metrics/clustering.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the timed region
  bool trace = false;     // per-layer run: paired untraced/traced samples
  std::string trace_dir;  // where the span log is written when tracing
};

// Steady-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// Everything one run measured. Metrics keep their insertion order; the
// run.py picks the end-to-end or the per-layer subset by name.
class Sheet {
 public:
  void set(const std::string& name, double value, const char* unit);
  // Counts one failed or inexact operation; the first few reasons are kept
  // for the report.
  void fail(std::string why);

  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Work counters that must repeat exactly at a fixed seed, and a digest of
  // the generated inputs (which must change with the seed).
  std::vector<std::pair<std::string, std::uint64_t>> repeatable;
  std::uint64_t input_digest = 0;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
};

// Prints a human-readable line of the run (workload summary, latency
// budget) ahead of the result line.
void note(const std::string& line);

// The benchmark's span log. Time comes from the obs::Tracer clock so these
// spans nest with the ones the program itself emits when a tracer is
// attached. Single-threaded: spans are opened only from the workload's
// driving thread, and the innermost open span is every new span's parent.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* layer;
    std::uint32_t parent;  // kNoParent for a root span
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanLog(const udb::obs::Tracer& clock) : clock_(clock) {}

  std::uint32_t open(const char* name, const char* layer);
  void close(std::uint32_t id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Writes the log plus the program's own spans (those recorded by the clock
  // tracer, when it was attached to the program) as one JSON document,
  // <trace_dir>/<workload>-seed<seed>.json. Throws std::runtime_error when
  // the file cannot be written.
  void write(const Options& o, const char* workload) const;

 private:
  const udb::obs::Tracer& clock_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

// RAII span; inert when `log` is null.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, const char* layer)
      : log_(log), id_(log ? log->open(name, layer) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

// Duration of every span named `name`, summed, in seconds.
[[nodiscard]] double total_seconds(const SpanLog& log, const char* name);
// Same for the program's own spans recorded by `tracer`.
[[nodiscard]] double total_seconds(const udb::obs::Tracer& tracer,
                                   const char* name);

// Same labels and core flags, element by element.
[[nodiscard]] bool same_clustering(const udb::ClusteringResult& a,
                                   const udb::ClusteringResult& b);

// Mean reachable-MC list length over the tree's micro-clusters.
[[nodiscard]] double reach_len_mean(const udb::MuRTree& tree);

// The fastest time of each of a run's operations over its repetitions. A
// run repeats a fixed list of operations (one fit, the updates of a stream,
// the queries of a pass); other tenants of the host can only add time to a
// repetition, never take it away, so an operation's fastest repetition is
// the steadiest estimate of its own cost.
class BestTimes {
 public:
  explicit BestTimes(std::size_t ops);
  void add(std::size_t op, double seconds);
  // One entry per operation; an operation never timed reads +infinity.
  [[nodiscard]] const std::vector<double>& best() const { return best_; }
  // Fewest repetitions any operation had.
  [[nodiscard]] std::size_t min_reps() const;

 private:
  std::vector<double> best_;
  std::vector<std::size_t> reps_;
};

// The time metrics every workload reports from its best times: op_p50_us,
// the median over the operations, and ops_per_s, operations per second of
// their summed best times.
void set_op_metrics(Sheet& sh, const BestTimes& t);

// Nearest-rank percentile (q in [0,1]) of `v`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double sum(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);

// Peak resident memory over a window: reset_peak_rss() starts the window
// (Linux clear_refs), peak_rss_mb() reads its high-water mark.
void reset_peak_rss();
[[nodiscard]] double peak_rss_mb();

// FNV-1a over raw bytes, chained through `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 14695981039346656037ull);

// The run's host stamp as a JSON object: CPU model, dispatched SIMD target,
// reported CPUs, effective parallelism from a calibration loop, build type.
[[nodiscard]] std::string host_stamp_json();

// Restricts the calling thread to the CPU it runs on; threads it starts
// later inherit the mask. Returns that CPU, or -1 when the kernel refuses.
int pin_to_current_cpu();

// The workloads.
Sheet run_fit_sparse3d(const Options& o);
Sheet run_fit_dense14d(const Options& o);
Sheet run_update_churn(const Options& o);
Sheet run_serve_classify(const Options& o);

}  // namespace perfbench
