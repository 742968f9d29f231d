// Incremental-update bench (docs/INCREMENTAL.md): sustained insert/erase
// throughput of the IncrementalMuDbscan engine against the naive alternative
// — refitting mu_dbscan from scratch after every update, which is what a
// serving deployment without the incremental engine would have to do.
//
// Four workloads over a blob dataset: insert-only growth from a pool of
// mostly sparse points, dense_insert growth from points drawn around the
// base's own blob centres, delete-only decay, and the serving-shaped mixed
// stream (60% insert / 40% erase); and a fifth, giant_cluster_delete,
// erasing from uniform points that form one cluster spanning the whole box —
// every erase lands inside the one cluster a split check could have to walk
// (docs/INCREMENTAL.md §Delete). Each is timed end to end through the
// engine; the refit baseline is measured by
// actually running mu_dbscan over the final survivor set (the median of a few
// runs), so `speedup_vs_refit = refit_seconds * updates / engine_seconds` is
// an apples-to-apples "updates the engine sustains while one refit runs".
//
// Before any number is reported, every workload proves exactness: the
// engine's result() must equal the canonicalized batch clustering of the
// survivors (the same oracle the differential test suite uses). A full run
// (not --quick) additionally asserts the headline acceptance bound: the
// mixed workload must sustain >= 10x updates/s over refit-per-update at
// n >= 10k. Emits BENCH_update.json (gated in CI by tools/benchdiff).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/distance.hpp"
#include "common/timer.hpp"
#include "common/vfs.hpp"
#include "core/incremental.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"
#include "obs/metrics.hpp"

using namespace udb;

namespace {

struct WorkloadResult {
  std::string name;
  std::size_t updates = 0;
  std::size_t final_points = 0;
  double seconds = 0.0;
  double updates_per_sec = 0.0;
  double refit_seconds_per_update = 0.0;
  double speedup_vs_refit = 0.0;
  bool exact = false;
};

// Applies `ops` (insert row index >= 0, erase id encoded as -(id+1)) through
// a fresh engine seeded with `base`, then measures the refit baseline over
// the final survivors and verifies exactness.
WorkloadResult run_workload(const char* name, const Dataset& base,
                            const Dataset& pool, const DbscanParams& params,
                            const std::vector<std::int64_t>& ops,
                            std::size_t refit_reps,
                            obs::MetricsRegistry* metrics) {
  IncrementalMuDbscan::Config cfg;
  cfg.metrics = metrics;
  IncrementalMuDbscan eng(base.dim(), params, cfg);
  for (std::size_t i = 0; i < base.size(); ++i)
    eng.insert(base.point(static_cast<PointId>(i)));

  WallTimer t;
  for (const std::int64_t op : ops) {
    if (op >= 0)
      eng.insert(pool.point(static_cast<PointId>(op)));
    else
      eng.erase(static_cast<PointId>(-(op + 1)));
  }
  WorkloadResult r;
  r.name = name;
  r.updates = ops.size();
  r.seconds = t.seconds();
  r.updates_per_sec = static_cast<double>(r.updates) / r.seconds;
  r.final_points = eng.size();

  const Dataset survivors = eng.survivors();
  const ClusteringResult inc = eng.result();

  std::vector<double> refit_s(refit_reps);
  ClusteringResult batch;
  for (double& s : refit_s) {
    WallTimer rt;
    batch = mu_dbscan(survivors, params);
    s = rt.seconds();
  }
  // The median, not the mean: one slow refit would otherwise move
  // speedup_vs_refit by up to ~3x between runs of one build.
  const auto mid =
      refit_s.begin() + static_cast<std::ptrdiff_t>(refit_reps / 2);
  std::nth_element(refit_s.begin(), mid, refit_s.end());
  r.refit_seconds_per_update = *mid;
  r.speedup_vs_refit =
      r.refit_seconds_per_update / (r.seconds / static_cast<double>(r.updates));

  const ClusteringResult ref =
      canonicalize_clustering(survivors, params, std::move(batch));
  r.exact = inc.label == ref.label && inc.is_core == ref.is_core;
  if (!r.exact)
    throw std::runtime_error(
        std::string("EXACTNESS VIOLATION: workload ") + name +
        " diverged from the canonicalized batch clustering");
  return r;
}

// Median over the pool points of the number of base points strictly within
// eps, by brute force.
std::size_t median_base_neighbours(const Dataset& base, const Dataset& pool,
                                   double eps) {
  std::vector<std::size_t> counts;
  counts.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double* q = pool.point(static_cast<PointId>(i)).data();
    std::size_t c = 0;
    for (std::size_t j = 0; j < base.size(); ++j)
      c += sq_dist(q, base.point(static_cast<PointId>(j)).data(), base.dim()) <
           eps * eps;
    counts.push_back(c);
  }
  const auto mid = counts.begin() + static_cast<std::ptrdiff_t>(counts.size() / 2);
  std::nth_element(counts.begin(), mid, counts.end());
  return *mid;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const bool quick = cli.get_bool("quick", false);
    const auto n = static_cast<std::size_t>(
        cli.get_int_at_least("n", quick ? 3000 : 12000, 100));
    const auto updates = static_cast<std::size_t>(
        cli.get_int_in_range("updates", quick ? 200 : 2000, 10, 1000000));
    const double eps = cli.get_positive_double("eps", 1.5);
    const auto min_pts = static_cast<std::uint32_t>(
        cli.get_int_in_range("minpts", 5, 1, 1000));
    const std::string out_path = cli.get_string("out", "BENCH_update.json");
    cli.check_unused();

    bench::header("update_throughput — incremental updates vs refit",
                  "extension: exact insert/delete maintenance "
                  "(docs/INCREMENTAL.md)",
                  "speedup is refit-per-update cost over amortized "
                  "incremental cost");

    const std::size_t dim = 2;
    const DbscanParams params{eps, min_pts};
    const Dataset base = gen_blobs(n, dim, 16, 60.0, 1.0, 0.08, 42);
    // Insert pool of insert_only and mixed_60_40: the same generator at
    // another seed, which draws other blob centres, so most of these points
    // land in sparse regions of the base (about 200 of the default 2,000
    // have >= 50 base points within eps).
    const Dataset pool = gen_blobs(updates, dim, 16, 60.0, 1.0, 0.08, 43);
    // dense_insert's pool: the base's seed draws the base's centres first,
    // and without noise points every insert lands in one of the base's
    // blobs (the expensive case — promotions and merges over long neighbour
    // lists).
    const Dataset dense_pool = gen_blobs(updates, dim, 16, 60.0, 1.0, 0.0, 42);
    if (const std::size_t med = median_base_neighbours(base, dense_pool, eps);
        med < 50)
      throw std::runtime_error("dense_insert: the median pool point has " +
                               std::to_string(med) +
                               " base points within eps, not >= 50");
    const std::size_t refit_reps = quick ? 1 : 3;
    // Uniform with ~24 expected eps-neighbours per point (the blobs' box at
    // the default n and eps), far above the percolation threshold, so one
    // cluster spans the box.
    const double giant_box =
        40.0 * eps * std::sqrt(static_cast<double>(n) / 12000.0);
    const Dataset giant = gen_uniform(n, dim, 0.0, giant_box, 44);
    if (mu_dbscan(giant, params).num_clusters() != 1)
      throw std::runtime_error(
          "giant_cluster_delete: the uniform base is not one cluster");

    std::mt19937_64 rng(7);
    // insert-only: every pool row in order.
    std::vector<std::int64_t> ins_ops(updates);
    for (std::size_t i = 0; i < updates; ++i)
      ins_ops[i] = static_cast<std::int64_t>(i);
    // delete-only: distinct random base ids.
    std::vector<std::int64_t> del_ops;
    {
      std::vector<std::int64_t> ids(n);
      for (std::size_t i = 0; i < n; ++i)
        ids[i] = -(static_cast<std::int64_t>(i) + 1);
      std::shuffle(ids.begin(), ids.end(), rng);
      del_ops.assign(ids.begin(),
                     ids.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(updates, n / 2)));
    }
    // mixed: 60% inserts / 40% erases of still-alive ids, serving-shaped.
    std::vector<std::int64_t> mix_ops;
    {
      std::vector<PointId> alive(n);
      for (std::size_t i = 0; i < n; ++i) alive[i] = static_cast<PointId>(i);
      PointId next_id = static_cast<PointId>(n);
      std::size_t pool_cursor = 0;
      std::uniform_real_distribution<double> coin(0.0, 1.0);
      for (std::size_t k = 0; k < updates; ++k) {
        if (coin(rng) < 0.6 || alive.size() < 2) {
          mix_ops.push_back(
              static_cast<std::int64_t>(pool_cursor++ % pool.size()));
          alive.push_back(next_id++);
        } else {
          std::uniform_int_distribution<std::size_t> pick(0, alive.size() - 1);
          const std::size_t j = pick(rng);
          mix_ops.push_back(-(static_cast<std::int64_t>(alive[j]) + 1));
          alive[j] = alive.back();
          alive.pop_back();
        }
      }
    }

    obs::MetricsRegistry metrics;
    std::vector<WorkloadResult> results;
    bench::row("%20s | %8s %9s | %12s %16s %10s", "workload", "updates",
               "final_n", "updates/s", "refit_s/update", "speedup");
    bench::rule();
    const struct {
      const char* name;
      const Dataset* base;
      const Dataset* pool;
      const std::vector<std::int64_t>* ops;
    } kWorkloads[] = {
        {"insert_only", &base, &pool, &ins_ops},
        {"dense_insert", &base, &dense_pool, &ins_ops},
        {"delete_only", &base, &pool, &del_ops},
        {"mixed_60_40", &base, &pool, &mix_ops},
        // The delete-only ids, erased from the giant cluster instead.
        {"giant_cluster_delete", &giant, &pool, &del_ops},
    };
    for (const auto& wl : kWorkloads) {
      WorkloadResult r = run_workload(wl.name, *wl.base, *wl.pool, params,
                                      *wl.ops, refit_reps, &metrics);
      bench::row("%20s | %8zu %9zu | %12.0f %16.6f %9.1fx", r.name.c_str(),
                 r.updates, r.final_points, r.updates_per_sec,
                 r.refit_seconds_per_update, r.speedup_vs_refit);
      results.push_back(std::move(r));
    }
    bench::rule();

    // Headline acceptance bound: at n >= 10k a full run must sustain >= 10x
    // updates/s over refit-per-update on the mixed workload. --quick runs
    // are too small for the bound to be meaningful (refit is cheap at 3k
    // points), so they only check exactness.
    if (!quick && n >= 10000) {
      for (const WorkloadResult& r : results) {
        if (r.name != "mixed_60_40") continue;
        if (r.speedup_vs_refit < 10.0)
          throw std::runtime_error(
              "SPEEDUP BOUND VIOLATION: mixed workload sustained only " +
              std::to_string(r.speedup_vs_refit) +
              "x over refit-per-update (bound: 10x at n >= 10k)");
        bench::row("acceptance: mixed %0.1fx >= 10x over refit-per-update "
                   "at n = %zu — holds",
                   r.speedup_vs_refit, n);
      }
    }

    const obs::MetricsSnapshot ms = metrics.snapshot();
    bench::row("blast radius: %llu MCs touched over %llu tracked updates, "
               "%llu graph edges repaired, %llu full fallbacks",
               static_cast<unsigned long long>(
                   ms.counter(obs::Counter::kIncMcsTouched)),
               static_cast<unsigned long long>(
                   ms.hist(obs::Hist::kIncBlastRadius).count),
               static_cast<unsigned long long>(
                   ms.counter(obs::Counter::kIncGraphEdgesRepaired)),
               static_cast<unsigned long long>(
                   ms.counter(obs::Counter::kIncFullFallbacks)));

    std::ostringstream out;
    out << "{\n"
        << "  \"bench\": \"update_throughput\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"n\": " << n << ",\n"
        << "  \"dim\": " << dim << ",\n"
        << "  \"eps\": " << eps << ",\n"
        << "  \"min_pts\": " << min_pts << ",\n"
        << "  \"updates\": " << updates << ",\n"
        << "  \"refit_reps\": " << refit_reps << ",\n"
        << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const WorkloadResult& r = results[i];
      out << "    {\"name\": \"" << r.name << "\", \"updates\": " << r.updates
          << ", \"final_points\": " << r.final_points
          << ", \"seconds\": " << r.seconds
          << ", \"updates_per_sec\": " << r.updates_per_sec
          << ", \"refit_seconds_per_update\": " << r.refit_seconds_per_update
          << ", \"speedup_vs_refit\": " << r.speedup_vs_refit
          << ", \"exact\": " << (r.exact ? "true" : "false") << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"metrics\": " << bench::metrics_json_object(ms, 0) << "\n"
        << "}\n";
    const Status st = vfs::write_text_file(out_path, out.str());
    if (!st.ok()) throw std::runtime_error(st.to_string());
    bench::row("json written to %s", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "update_throughput: error: %s\n", e.what());
    return 1;
  }
}
