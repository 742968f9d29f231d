// update_churn: a stream of inserts and erases through IncrementalMuDbscan.
//
// The points are bench/update_throughput's: 12,000 base points and a pool of
// 4,000 insert candidates from the same 2-D blob generator and seeds (16
// centres, box 60, sigma 1, 8% noise), eps = 1.5, MinPts = 5. The stream is
// 4,000 updates, 60% inserts (pool points in a shuffled order) and 40%
// erases of random live ids, drawn at a fixed seed. The run's seed moves
// every pool point by up to kJitter * eps on each axis. The base points and
// the stream stay fixed because the cost of an erase depends mostly on which
// blobs merge into one giant cluster and which ids the stream erases: across
// draws of the points the tail of the update latency moved by a factor of
// 1.6, and jittering the base points too moved the summed erase time by up
// to 30% from one seed to the next.
//
// A pass sets up from scratch (generation plus the ingest of the base points
// into a fresh engine: a setup_s sample), then runs the stream with each
// update timed on its own. Before anything is timed, one untimed pass must
// leave result() equal to canonicalize_clustering(survivors,
// mu_dbscan(survivors)); it also gives the work counters. The timed region
// repeats passes until the run's seconds are spent, and each pass must end
// in the checked clustering.
//
// A traced run alternates untraced and traced passes; a traced pass wraps
// every insert and erase call in a span.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>

#include "core/incremental.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "harness.hpp"
#include "metrics/exactness.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBase = 12000;
constexpr std::size_t kUpdates = 4000;
constexpr std::size_t kDim = 2;
constexpr std::uint64_t kStreamSeed = 1;  // fixed: see the file comment
constexpr double kJitter = 0.02;
const udb::DbscanParams kParams{1.5, 5};

struct Inputs {
  udb::Dataset base;
  udb::Dataset pool;              // points the inserts draw from
  // >= 0: insert pool row op; < 0: erase id -(op + 1)
  std::vector<std::int64_t> ops;
};

// `d`'s coordinates, each moved uniformly by up to kJitter * eps.
udb::Dataset jittered(const udb::Dataset& d, std::mt19937_64& rng) {
  const double a = kJitter * kParams.eps;
  std::uniform_real_distribution<double> jitter(-a, a);
  std::vector<double> coords = d.raw();
  for (double& x : coords) x += jitter(rng);
  return udb::Dataset(d.dim(), std::move(coords));
}

// The stream over the points of the run seeded `seed`.
Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  std::mt19937_64 moves(seed);
  in.base = udb::gen_blobs(kBase, kDim, 16, 60.0, 1.0, 0.08, 42);
  in.pool = jittered(
      udb::gen_blobs(kUpdates, kDim, 16, 60.0, 1.0, 0.08, 43), moves);
  std::mt19937_64 rng(kStreamSeed);
  std::vector<std::int64_t> order(kUpdates);
  for (std::size_t i = 0; i < kUpdates; ++i)
    order[i] = static_cast<std::int64_t>(i);
  std::shuffle(order.begin(), order.end(), rng);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<udb::PointId> alive(kBase);
  for (std::size_t i = 0; i < kBase; ++i)
    alive[i] = static_cast<udb::PointId>(i);
  auto next_id = static_cast<udb::PointId>(kBase);
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < kUpdates; ++k) {
    if (coin(rng) < 0.6 || alive.size() < 2) {
      in.ops.push_back(order[cursor++]);
      alive.push_back(next_id++);
    } else {
      std::uniform_int_distribution<std::size_t> pick(0, alive.size() - 1);
      const std::size_t j = pick(rng);
      in.ops.push_back(-(static_cast<std::int64_t>(alive[j]) + 1));
      alive[j] = alive.back();
      alive.pop_back();
    }
  }
  return in;
}

// Set-up of one pass: the inputs and a fresh engine holding the base points.
struct Pass {
  Inputs in;
  std::unique_ptr<udb::IncrementalMuDbscan> eng;
};

Pass set_up(std::uint64_t seed) {
  Pass p{make_inputs(seed), nullptr};
  p.eng = std::make_unique<udb::IncrementalMuDbscan>(kDim, kParams);
  for (std::size_t i = 0; i < p.in.base.size(); ++i)
    p.eng->insert(p.in.base.point(static_cast<udb::PointId>(i)));
  return p;
}

// Runs the stream, passing each update's latency to `time(k, seconds)`, k
// the update's place in the stream. Returns the number of erases that found
// no live id.
template <class Time>
std::size_t run_stream(Pass& p, SpanLog* log, Time&& time) {
  std::size_t missing = 0;
  for (std::size_t k = 0; k < p.in.ops.size(); ++k) {
    const std::int64_t op = p.in.ops[k];
    Stopwatch t;
    if (op >= 0) {
      Scope s(log, "insert", "core/incremental");
      (void)p.eng->insert(p.in.pool.point(static_cast<udb::PointId>(op)));
    } else {
      Scope s(log, "erase", "core/incremental");
      if (!p.eng->erase(static_cast<udb::PointId>(-(op + 1)))) ++missing;
    }
    time(k, t.seconds());
  }
  return missing;
}

}  // namespace

Sheet run_update_churn(const Options& o) {
  Sheet sh;
  std::vector<double> setup;

  // ---- check pass: untimed, exact against the batch engine --------------
  udb::ClusteringResult reference;
  std::vector<std::int64_t> ops;
  {
    Stopwatch t;
    Pass p = set_up(o.seed);
    setup.push_back(t.seconds());
    for (const udb::Dataset* d : {&p.in.base, &p.in.pool})
      sh.input_digest = fnv1a(d->raw().data(),
                              d->raw().size() * sizeof(double),
                              sh.input_digest);
    sh.input_digest = fnv1a(p.in.ops.data(),
                            p.in.ops.size() * sizeof(std::int64_t),
                            sh.input_digest);

    std::vector<double> radius;  // MCs touched by each update
    const udb::IncrementalMuDbscan::Stats before = p.eng->stats();
    for (const std::int64_t op : p.in.ops) {
      const std::uint64_t touched = p.eng->stats().mcs_touched;
      if (op >= 0)
        (void)p.eng->insert(p.in.pool.point(static_cast<udb::PointId>(op)));
      else if (!p.eng->erase(static_cast<udb::PointId>(-(op + 1))))
        sh.fail("check pass: erase of a live id returned false");
      radius.push_back(
          static_cast<double>(p.eng->stats().mcs_touched - touched));
    }
    const udb::IncrementalMuDbscan::Stats& after = p.eng->stats();
    const std::uint64_t touched = after.mcs_touched - before.mcs_touched;
    sh.attempted += p.in.ops.size();
    sh.set("inc.mcs_touched", static_cast<double>(touched), "count");
    sh.set("inc.graph_edges_repaired",
           static_cast<double>(after.graph_edges_repaired -
                               before.graph_edges_repaired),
           "count");
    sh.set("inc.full_fallbacks",
           static_cast<double>(after.full_fallbacks - before.full_fallbacks),
           "count");
    sh.set("inc.blast_radius_p50", median(radius), "count");
    sh.set("inc.blast_radius_max", percentile(radius, 1.0), "count");
    sh.repeatable = {{"inc.mcs_touched", touched}};

    reference = p.eng->result();
    const udb::Dataset survivors = p.eng->survivors();
    const udb::ClusteringResult batch = udb::canonicalize_clustering(
        survivors, kParams, udb::mu_dbscan(survivors, kParams));
    if (!same_clustering(reference, batch))
      sh.fail("check pass: result() differs from the canonical batch fit");
    ops = std::move(p.in.ops);
  }

  // ---- timed passes -----------------------------------------------------
  // A pass replays the stream from the same start, so update k is the same
  // operation in every pass: its best time is its fastest untraced pass. A
  // traced run alternates untraced and traced passes and ends on a traced
  // one.
  udb::obs::Tracer clock;
  SpanLog log(clock);
  BestTimes best(kUpdates);
  std::vector<double> plain_pass_s, traced_pass_s;
  reset_peak_rss();
  Stopwatch region;
  for (std::size_t i = 0;; ++i) {
    const bool with_trace = o.trace && i % 2 == 1;
    Stopwatch t;
    Pass p = set_up(o.seed);
    setup.push_back(t.seconds());
    Stopwatch stream;
    const std::size_t missing =
        with_trace ? run_stream(p, &log, [](std::size_t, double) {})
                   : run_stream(p, nullptr, [&best](std::size_t k, double s) {
                       best.add(k, s);
                     });
    (with_trace ? traced_pass_s : plain_pass_s).push_back(stream.seconds());
    sh.attempted += p.in.ops.size();
    for (std::size_t k = 0; k < missing; ++k)
      sh.fail("timed pass: erase of a live id returned false");
    // A wrong final clustering means at least one update was inexact.
    if (!same_clustering(p.eng->result(), reference))
      sh.fail("timed pass: result() differs from the check pass");
    if (region.seconds() >= o.seconds && (!o.trace || with_trace)) break;
  }
  const double rss = peak_rss_mb();

  // Best times by kind, for the per-layer insert and erase figures.
  std::vector<double> insert_s, erase_s;
  for (std::size_t k = 0; k < kUpdates; ++k)
    (ops[k] >= 0 ? insert_s : erase_s).push_back(best.best()[k]);
  sh.set("setup_s", median(setup), "s");
  sh.set("peak_rss_mb", rss, "MB");
  set_op_metrics(sh, best);
  sh.set("inc.insert_p50_us", median(insert_s) * 1e6, "us");
  sh.set("inc.insert_p99_us", percentile(insert_s, 0.99) * 1e6, "us");
  sh.set("inc.erase_p50_us", median(erase_s) * 1e6, "us");
  sh.set("inc.erase_p99_us", percentile(erase_s, 0.99) * 1e6, "us");

  char line[200];
  std::snprintf(line, sizeof line,
                "update_churn: %zu untraced passes of %zu updates; best "
                "times: insert p50 %.1f us, erase p50 %.1f us p99 %.1f us",
                plain_pass_s.size(), kUpdates,
                median(insert_s) * 1e6, median(erase_s) * 1e6,
                percentile(erase_s, 0.99) * 1e6);
  note(line);

  if (o.trace) {
    const double k = static_cast<double>(traced_pass_s.size());
    const double pass = mean(traced_pass_s);
    const double ins = total_seconds(log, "insert") / k;
    const double era = total_seconds(log, "erase") / k;
    sh.set("inc.insert_busy_s", ins, "s");
    sh.set("inc.erase_busy_s", era, "s");
    sh.set("trace_overhead_frac", pass / mean(plain_pass_s) - 1.0, "frac");
    std::snprintf(line, sizeof line,
                  "budget update_churn: mean of %zu traced passes",
                  traced_pass_s.size());
    note(line);
    auto row = [&](const char* layer, const char* what, double s) {
      std::snprintf(line, sizeof line, "  %-17s %-30s %9.4f s %6.1f%%", layer,
                    what, s, pass > 0 ? 100.0 * s / pass : 0.0);
      note(line);
    };
    row("core/incremental", "insert (busy)", ins);
    row("core/incremental", "erase (busy)", era);
    row("residual", "stream loop outside the calls", pass - ins - era);
    row("total", "= traced pass", pass);
    log.write(o, "update_churn");
  }
  return sh;
}

}  // namespace perfbench
