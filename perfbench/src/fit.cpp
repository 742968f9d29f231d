// fit_sparse3d and fit_dense14d: whole µDBSCAN fits at one thread.
//
// A run fits one dataset: the analog drawn at a fixed generator seed, with
// every coordinate moved a little by the run's seed (see make_input). Whole
// draws of the generator differ in fit cost by 10-20%; the jitter keeps the
// layout and so the cost. Set-up generates it (the median of several
// generations is setup_s).
//
// Before anything is timed, one fit is checked against an independent exact
// baseline with compare_exact, together with the query ledger performed +
// avoided == n. The baseline is grid_dbscan at d = 3 and g_dbscan at d = 14;
// neither shares index code with µDBSCAN. The check fit also gives the work
// counters. The timed region then repeats whole fits (engine construction,
// the four phases, result extraction and teardown) until the run's seconds
// are spent, and checks each against the check fit.
//
// A traced run alternates untraced and traced fits. Traced fits wrap each
// public engine call in a span and attach an obs::Tracer, so the program's
// own build.* / alg6.* / alg7.* spans nest under the benchmark's.

#include <cstdio>
#include <random>
#include <string>

#include "baselines/g_dbscan.hpp"
#include "baselines/grid_dbscan.hpp"
#include "core/mudbscan_engine.hpp"
#include "data/named.hpp"
#include "harness.hpp"
#include "metrics/exactness.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

using udb::obs::Counter;

constexpr int kSetupReps = 31;
// Every run fits the same draw of the generator, moved a little by the run's
// seed (see make_input).
constexpr std::uint64_t kGeneratorSeed = 1;
constexpr double kJitter = 0.02;

struct FitSpec {
  const char* workload;
  const char* dataset;  // make_named_dataset analog name
  double scale;
  bool grid_oracle;     // grid_dbscan (low d) or g_dbscan
};

// What the untimed check fit reads from the engine before teardown.
struct FitFacts {
  udb::MuDbscanStats stats;
  udb::obs::MetricsSnapshot metrics;
  std::size_t num_mcs = 0;
  std::size_t deferred = 0;
  double reach_len_mean = 0.0;
};

// One fit through the engine's public phase calls, each wrapped in a span
// when `log` is set. `facts`, when set, is filled before teardown.
udb::ClusteringResult fit_once(const udb::NamedDataset& nd,
                               udb::obs::Tracer* tracer, SpanLog* log,
                               FitFacts* facts) {
  Scope fit(log, "fit", "process");
  udb::MuDbscanConfig cfg;
  cfg.num_threads = 1;
  cfg.tracer = tracer;
  udb::MuDbscanEngine eng(nd.data, nd.params, cfg);
  {
    Scope s(log, "build_tree", "core/murtree");
    eng.build_tree();
  }
  {
    Scope s(log, "find_reachable", "core/murtree");
    eng.find_reachable();
  }
  {
    Scope s(log, "cluster", "core/mudbscan");
    eng.cluster();
  }
  {
    Scope s(log, "post_process", "core/mudbscan");
    eng.post_process();
  }
  udb::ClusteringResult r;
  {
    Scope s(log, "extract_result", "core/mudbscan");
    r = eng.extract_result();
  }
  if (facts != nullptr) {
    facts->stats = eng.stats;
    facts->metrics = eng.metrics_snapshot();
    facts->num_mcs = eng.tree().num_mcs();
    facts->deferred = eng.tree().deferred_points();
    facts->reach_len_mean = reach_len_mean(eng.tree());
  }
  return r;
}

// Work counters of the check fit; they must repeat exactly at a fixed seed.
void set_fit_counters(Sheet& sh, const FitFacts& f, std::size_t n,
                      std::size_t dim) {
  const udb::obs::MetricsSnapshot& m = f.metrics;
  const std::uint64_t evals = m.counter(Counter::kRtreeDistanceEvals);
  const std::uint64_t visits = m.counter(Counter::kRtreeNodeVisits);
  const auto neighbors =
      static_cast<double>(m.hist(udb::obs::Hist::kNeighborCount).sum);
  auto count = [&sh](const char* name, std::uint64_t v) {
    sh.set(name, static_cast<double>(v), "count");
  };
  count("murtree.num_mcs", f.num_mcs);
  count("murtree.deferred_points", f.deferred);
  sh.set("murtree.reach_len_mean", f.reach_len_mean, "count");
  count("engine.queries_performed", f.stats.queries_performed);
  sh.set("engine.query_save_fraction",
         1.0 - static_cast<double>(f.stats.queries_performed) /
                   static_cast<double>(n),
         "frac");
  count("engine.wndq_core_points", f.stats.wndq_core_points);
  count("engine.post_core_distance_evals", f.stats.post_core_distance_evals);
  count("index.node_visits", visits);
  count("index.distance_evals", evals);
  count("index.aux_trees_searched", m.counter(Counter::kAuxTreesSearched));
  sh.set("index.evals_per_neighbor",
         neighbors > 0 ? static_cast<double>(evals) / neighbors : 0.0, "ratio");
  count("kernel.blocks", m.counter(Counter::kKernelBlocks));
  count("kernel.tail_points", m.counter(Counter::kKernelTailPoints));
  sh.set("kernel.bytes_computed",
         static_cast<double>(evals) * static_cast<double>(dim) * 8.0, "bytes");
  count("uf.union_calls", m.counter(Counter::kUnionCalls));
  sh.repeatable = {
      {"murtree.num_mcs", f.num_mcs},
      {"engine.queries_performed", f.stats.queries_performed},
      {"index.distance_evals", evals},
      {"index.node_visits", visits},
  };
}

// Per-layer times of the traced fits (means over `fits`), and the budget:
// the phases plus extraction plus the residual no phase covers add up to the
// traced fit_s by construction.
void set_fit_budget(Sheet& sh, const SpanLog& log,
                    const udb::obs::Tracer& tracer, std::size_t fits,
                    const char* workload) {
  const double k = static_cast<double>(fits);
  const double fit = total_seconds(log, "fit") / k;
  const double build = total_seconds(log, "build_tree") / k;
  const double reach = total_seconds(log, "find_reachable") / k;
  const double cluster = total_seconds(log, "cluster") / k;
  const double post = total_seconds(log, "post_process") / k;
  const double extract = total_seconds(log, "extract_result") / k;
  const double assign = total_seconds(tracer, "build.assign") / k;
  const double aux = total_seconds(tracer, "build.aux_trees") / k;
  const double inner = total_seconds(tracer, "build.inner_circles") / k;
  const double alg6 = total_seconds(tracer, "alg6.process_rem_points") / k;
  const double alg7 = total_seconds(tracer, "alg7.post_core") / k;
  const double residual = fit - (build + reach + cluster + post + extract);

  sh.set("murtree.build_s", build, "s");
  sh.set("murtree.assign_s", assign, "s");
  sh.set("murtree.aux_trees_s", aux, "s");
  sh.set("murtree.inner_circles_s", inner, "s");
  sh.set("murtree.reachable_s", reach, "s");
  sh.set("engine.cluster_s", cluster, "s");
  sh.set("engine.alg6_s", alg6, "s");
  sh.set("engine.post_s", post, "s");
  sh.set("engine.alg7_s", alg7, "s");
  sh.set("engine.extract_s", extract, "s");
  sh.set("fit.traced_s", fit, "s");
  sh.set("fit.residual_s", residual, "s");

  char line[200];
  auto row = [&](const char* layer, const char* what, double s) {
    std::snprintf(line, sizeof line, "  %-14s %-34s %9.4f s %6.1f%%", layer,
                  what, s, fit > 0 ? 100.0 * s / fit : 0.0);
    note(line);
  };
  std::snprintf(line, sizeof line,
                "budget %s: mean of %zu traced fits (Table III phases)",
                workload, fits);
  note(line);
  row("core/murtree", "build_tree", build);
  row("", "  build.assign", assign);
  row("", "  build.aux_trees", aux);
  row("", "  build.inner_circles", inner);
  row("", "  other (build_tree self time)", build - assign - aux - inner);
  row("core/murtree", "find_reachable", reach);
  row("core/mudbscan", "cluster", cluster);
  row("", "  alg6.process_rem_points", alg6);
  row("core/mudbscan", "post_process", post);
  row("", "  alg7.post_core", alg7);
  row("core/mudbscan", "extract_result", extract);
  row("residual", "fit time no phase span covers", residual);
  row("total", "= traced fit_s", fit);
}

// The run's dataset: the analog drawn at the fixed generator seed, every
// coordinate then moved by up to kJitter * eps, uniformly, from the run's
// seed.
udb::NamedDataset make_input(const FitSpec& spec, std::uint64_t seed) {
  udb::NamedDataset nd =
      udb::make_named_dataset(spec.dataset, spec.scale, kGeneratorSeed);
  std::vector<double> coords = nd.data.raw();
  std::mt19937_64 rng(seed);
  const double a = kJitter * nd.params.eps;
  std::uniform_real_distribution<double> jitter(-a, a);
  for (double& x : coords) x += jitter(rng);
  nd.data = udb::Dataset(nd.data.dim(), std::move(coords));
  return nd;
}

Sheet run_fit(const Options& o, const FitSpec& spec) {
  Sheet sh;

  // ---- set-up: data generation ------------------------------------------
  std::vector<double> setup;
  udb::NamedDataset nd;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch t;
    nd = make_input(spec, o.seed);
    setup.push_back(t.seconds());
  }
  sh.input_digest =
      fnv1a(nd.data.raw().data(), nd.data.raw().size() * sizeof(double));
  const std::size_t n = nd.data.size();
  const std::size_t dim = nd.data.dim();

  // ---- exactness before timing ------------------------------------------
  FitFacts facts;
  const udb::ClusteringResult oracle =
      spec.grid_oracle ? udb::grid_dbscan(nd.data, nd.params)
                       : udb::g_dbscan(nd.data, nd.params);
  const udb::ClusteringResult reference = fit_once(nd, nullptr, nullptr, &facts);
  ++sh.attempted;
  {
    const udb::MuDbscanStats& st = facts.stats;
    const udb::ExactnessReport rep = udb::compare_exact(reference, oracle);
    const std::uint64_t ledger = st.queries_performed + st.avoided_dmc +
                                 st.avoided_cmc + st.avoided_promotion;
    if (!rep.exact())
      sh.fail("check fit differs from the baseline: " + rep.detail);
    else if (ledger != n)
      sh.fail("query ledger " + std::to_string(ledger) + " != n " +
              std::to_string(n));
  }
  set_fit_counters(sh, facts, n, dim);

  // ---- timed fits -------------------------------------------------------
  // A traced run alternates untraced and traced fits and ends on a traced
  // one. The run's one operation is the fit; its best time is the fastest
  // untraced fit.
  udb::obs::Tracer tracer;
  SpanLog log(tracer);
  std::vector<double> plain, traced;
  BestTimes best(1);
  reset_peak_rss();
  Stopwatch region;
  for (std::size_t i = 0;; ++i) {
    const bool with_trace = o.trace && i % 2 == 1;
    Stopwatch t;
    const udb::ClusteringResult r =
        fit_once(nd, with_trace ? &tracer : nullptr,
                 with_trace ? &log : nullptr, nullptr);
    const double s = t.seconds();
    if (with_trace) {
      traced.push_back(s);
    } else {
      plain.push_back(s);
      best.add(0, s);
    }
    ++sh.attempted;
    if (!same_clustering(r, reference))
      sh.fail("timed fit differs from its check fit");
    if (region.seconds() >= o.seconds && (!o.trace || with_trace)) break;
  }
  const double rss = peak_rss_mb();

  sh.set("setup_s", median(setup), "s");
  sh.set("peak_rss_mb", rss, "MB");
  set_op_metrics(sh, best);

  char line[200];
  std::snprintf(line, sizeof line,
                "%s: n=%zu d=%zu, %zu untraced fits: best %.4f s, median "
                "%.4f s, slowest %.4f s",
                spec.workload, n, dim, plain.size(), best.best()[0],
                median(plain), percentile(plain, 1.0));
  note(line);
  if (o.trace) {
    set_fit_budget(sh, log, tracer, traced.size(), spec.workload);
    sh.set("trace_overhead_frac", mean(traced) / mean(plain) - 1.0, "frac");
    log.write(o, spec.workload);
  }
  return sh;
}

}  // namespace

// The analogs at a quarter (DGB: 12,500 points) and a half (KDDB14: 5,000
// points) of their base size. Each fit's working set then stays close to
// one core's own cache, and a run holds a hundred fits or more. At 200k and
// 40k points a fit took 2-5 s, a run held two to four of them, and the time
// metrics moved by up to 29% between runs of the same code, mostly with the
// load other tenants put on the shared last-level cache. The phase shares
// hold at these sizes (see README.md).
Sheet run_fit_sparse3d(const Options& o) {
  return run_fit(o, {"fit_sparse3d", "DGB", 0.25, true});
}

Sheet run_fit_dense14d(const Options& o) {
  return run_fit(o, {"fit_dense14d", "KDDB14", 0.5, false});
}

}  // namespace perfbench
