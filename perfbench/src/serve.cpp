// serve_classify: a closed loop of single-point classify requests from one
// client over one loopback connection.
//
// Set-up generates the MPAGB analog (60k points, d = 3), fits it with
// mu_dbscan and builds the ClusterModel; the median over several set-ups is
// setup_s. The server then runs in-process with an accept thread, one
// connection worker and no classify pool, so the workload uses at most four
// threads with the client, all pinned to one CPU. The queries are dataset
// points jittered by about 0.3 eps, so every request runs the µR-tree search
// rather than the exact-match path.
//
// Before anything is timed: the training set classified over the wire must
// reproduce the fitted clustering, and every query's served answer must
// equal the in-process ClusterModel::classify answer. Each timed answer is
// checked against the same expectation.
//
// A traced run alternates untraced and traced passes over the queries; a
// traced request is wrapped in a span around serve::Client::classify.

#include <cmath>
#include <cstdio>
#include <random>
#include <string>

#include "core/mudbscan.hpp"
#include "data/named.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/model.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using udb::obs::Counter;

constexpr int kSetupReps = 5;
constexpr std::size_t kQueries = 4096;
constexpr std::size_t kTrainingBatch = 1000;

std::shared_ptr<const udb::serve::ClusterModel> set_up(std::uint64_t seed) {
  udb::NamedDataset nd = udb::make_named_dataset("MPAGB", 1.0, seed);
  udb::serve::ModelSnapshot snap;
  snap.result = udb::mu_dbscan(nd.data, nd.params);
  snap.data = std::move(nd.data);
  snap.params = nd.params;
  auto model = udb::serve::ClusterModel::build(std::move(snap));
  if (!model.ok()) throw udb::StatusError(model.status());
  return *model;
}

std::vector<double> make_queries(const udb::serve::ClusterModel& m,
                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::uniform_int_distribution<std::size_t> pick(0, m.size() - 1);
  const std::size_t d = m.dim();
  // Per-axis sigma so the jitter's expected length is about 0.3 eps.
  std::normal_distribution<double> jitter(
      0.0, 0.3 * m.params().eps / std::sqrt(static_cast<double>(d)));
  std::vector<double> q;
  q.reserve(kQueries * d);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double* p = m.dataset().ptr(static_cast<udb::PointId>(pick(rng)));
    for (std::size_t a = 0; a < d; ++a) q.push_back(p[a] + jitter(rng));
  }
  return q;
}

bool same(const udb::serve::Classify& a, const udb::serve::Classify& b) {
  return a.label == b.label && a.kind == b.kind &&
         a.exact_match == b.exact_match &&
         a.would_be_core == b.would_be_core && a.neighbors == b.neighbors;
}

}  // namespace

Sheet run_serve_classify(const Options& o) {
  Sheet sh;
  // ---- set-up: data, fit, model -----------------------------------------
  std::vector<double> setup;
  std::shared_ptr<const udb::serve::ClusterModel> model;
  for (int i = 0; i < kSetupReps; ++i) {
    model.reset();
    Stopwatch t;
    model = set_up(o.seed);
    setup.push_back(t.seconds());
  }
  const udb::serve::ClusterModel& m = *model;
  const std::size_t d = m.dim();
  const auto dim32 = static_cast<std::uint32_t>(d);
  const std::vector<double> queries = make_queries(m, o.seed);
  sh.input_digest = fnv1a(m.dataset().raw().data(),
                          m.dataset().raw().size() * sizeof(double));
  sh.input_digest =
      fnv1a(queries.data(), queries.size() * sizeof(double), sh.input_digest);
  auto query = [&](std::size_t i) {
    return std::span<const double>(queries.data() + (i % kQueries) * d, d);
  };

  // In-process answers: the expectation, and the model's own latency.
  std::vector<udb::serve::Classify> expected(kQueries);
  std::vector<double> model_s;
  double neighbors = 0.0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    Stopwatch t;
    auto r = m.classify(query(i));
    model_s.push_back(t.seconds());
    if (!r.ok()) throw udb::StatusError(r.status());
    expected[i] = *r;
    neighbors += r->neighbors;
  }

  // Pin to one CPU before any server thread starts; they inherit the mask.
  // Client and server then hand each request over on one CPU instead of
  // waking an idle one, whose wake-up latency on a shared host swings with
  // the other tenants' load (unpinned p99 read 0.2-0.5 ms against ~0.1 ms).
  const int cpu = pin_to_current_cpu();
  udb::serve::ServerConfig scfg;
  scfg.pool_threads = 1;  // <= 1 classifies inline: no pool thread
  udb::serve::QueryServer server(model, scfg);
  if (udb::Status st = server.start(); !st.ok()) throw udb::StatusError(st);
  auto client = udb::serve::Client::connect(server.port(), 30.0);
  if (!client.ok()) throw udb::StatusError(client.status());

  // ---- exactness before timing ------------------------------------------
  {
    const udb::ClusteringResult& fitted = m.result();
    for (std::size_t base = 0; base < m.size(); base += kTrainingBatch) {
      const std::size_t cnt = std::min(kTrainingBatch, m.size() - base);
      auto r = client->classify(
          {m.dataset().raw().data() + base * d, cnt * d}, dim32);
      ++sh.attempted;
      if (!r.ok()) {
        sh.fail("training batch: " + r.status().to_string());
        continue;
      }
      for (std::size_t i = 0; i < cnt; ++i) {
        const auto id = static_cast<udb::PointId>(base + i);
        if ((*r)[i].label != fitted.label[id] ||
            (*r)[i].kind != fitted.kind(id)) {
          sh.fail("training point " + std::to_string(id) +
                  " not reproduced over the wire");
          break;
        }
      }
    }
    const udb::obs::MetricsSnapshot s0 = server.metrics().snapshot();
    const udb::MuRTree::IndexCounters i0 = m.tree().index_counters();
    const std::uint64_t aux0 = m.tree().aux_trees_searched();
    for (std::size_t i = 0; i < kQueries; ++i) {
      auto r = client->classify(query(i), dim32);
      ++sh.attempted;
      if (!r.ok() || r->size() != 1 || !same((*r)[0], expected[i]))
        sh.fail("query " + std::to_string(i) +
                " served answer differs from ClusterModel::classify");
    }
    const udb::obs::MetricsSnapshot s1 = server.metrics().snapshot();
    const udb::MuRTree::IndexCounters i1 = m.tree().index_counters();
    const auto evals =
        static_cast<double>(i1.distance_evals - i0.distance_evals);
    sh.set("murtree.num_mcs", static_cast<double>(m.tree().num_mcs()), "count");
    sh.set("murtree.deferred_points",
           static_cast<double>(m.tree().deferred_points()), "count");
    sh.set("murtree.reach_len_mean", reach_len_mean(m.tree()), "count");
    sh.set("index.node_visits",
           static_cast<double>(i1.node_visits - i0.node_visits), "count");
    sh.set("index.distance_evals", evals, "count");
    sh.set("index.aux_trees_searched",
           static_cast<double>(m.tree().aux_trees_searched() - aux0), "count");
    sh.set("index.evals_per_neighbor", neighbors > 0 ? evals / neighbors : 0.0,
           "ratio");
    sh.set("kernel.blocks",
           static_cast<double>(i1.kernel_blocks - i0.kernel_blocks), "count");
    sh.set("kernel.tail_points",
           static_cast<double>(i1.kernel_tail_points - i0.kernel_tail_points),
           "count");
    sh.set("kernel.bytes_computed", evals * static_cast<double>(d) * 8.0,
           "bytes");
    sh.set("serve.classify_performed",
           static_cast<double>(s1.counter(Counter::kServeClassifyPerformed) -
                               s0.counter(Counter::kServeClassifyPerformed)),
           "count");
    sh.repeatable = {
        {"murtree.num_mcs", m.tree().num_mcs()},
        {"index.distance_evals", i1.distance_evals - i0.distance_evals},
        {"index.node_visits", i1.node_visits - i0.node_visits},
    };
  }

  // ---- timed closed loop ------------------------------------------------
  // Passes over the queries: query q is the same operation in every pass,
  // and its best time is its fastest untraced round trip. A traced run
  // alternates untraced and traced passes. The run ends on a whole pass.
  udb::obs::Tracer clock;
  SpanLog log(clock);
  std::vector<double> plain, traced;
  plain.reserve(1 << 20);
  if (o.trace) traced.reserve(1 << 19);
  BestTimes best(kQueries);
  reset_peak_rss();
  Stopwatch region;
  for (std::size_t i = 0;; ++i) {
    const std::size_t q = i % kQueries;
    const bool with_trace = o.trace && (i / kQueries) % 2 == 1;
    Stopwatch t;
    udb::StatusOr<std::vector<udb::serve::Classify>> r = [&] {
      Scope s(with_trace ? &log : nullptr, "client.classify", "serve");
      return client->classify(query(q), dim32);
    }();
    const double s = t.seconds();
    if (with_trace) {
      traced.push_back(s);
    } else {
      plain.push_back(s);
      best.add(q, s);
    }
    ++sh.attempted;
    if (!r.ok())
      sh.fail("timed request: " + r.status().to_string());
    else if (r->size() != 1 || !same((*r)[0], expected[q]))
      sh.fail("timed request: answer differs from ClusterModel::classify");
    if (q + 1 == kQueries && region.seconds() >= o.seconds &&
        (!o.trace || with_trace))
      break;
  }
  const double rss = peak_rss_mb();

  auto tel = client->telemetry();
  if (!tel.ok()) throw udb::StatusError(tel.status());
  const double handle_p50_us = tel->windows[1].p50_us;  // 10 s window
  const udb::obs::MetricsSnapshot fin = server.metrics().snapshot();
  server.stop();

  // The latency budget sets the raw round-trip median beside the server's
  // handle median, which the TELEMETRY window keeps raw as well.
  const double p50_us = median(plain) * 1e6;
  sh.set("setup_s", median(setup), "s");
  sh.set("peak_rss_mb", rss, "MB");
  set_op_metrics(sh, best);
  sh.set("serve.classify_p99_us", percentile(best.best(), 0.99) * 1e6, "us");
  sh.set("serve.model_classify_p50_us", median(model_s) * 1e6, "us");
  sh.set("serve.server_handle_p50_us", handle_p50_us, "us");
  sh.set("serve.residual_p50_us", p50_us - handle_p50_us, "us");
  sh.set("serve.errors",
         static_cast<double>(fin.counter(Counter::kServeErrors)), "count");

  char line[200];
  std::snprintf(line, sizeof line,
                "serve_classify: n=%zu d=%zu, pinned to cpu %d, %zu untraced "
                "requests (%zu per query at least); round trip p50 %.1f us, "
                "best-time p50 %.1f us",
                m.size(), d, cpu, plain.size(), best.min_reps(), p50_us,
                median(best.best()) * 1e6);
  note(line);
  std::snprintf(line, sizeof line,
                "budget serve_classify: raw p50 per untraced request");
  note(line);
  auto row = [&](const char* layer, const char* what, double us) {
    std::snprintf(line, sizeof line, "  %-10s %-50s %9.1f us %6.1f%%", layer,
                  what, us, p50_us > 0 ? 100.0 * us / p50_us : 0.0);
    note(line);
  };
  row("serve", "server handle (TELEMETRY 10 s window)", handle_p50_us);
  row("residual", "transport, framing, client (round trip - handle)",
      p50_us - handle_p50_us);
  row("total", "= classify round trip", p50_us);
  row("", "in-process ClusterModel::classify, same queries",
      median(model_s) * 1e6);

  if (o.trace) {
    sh.set("trace_overhead_frac", mean(traced) / mean(plain) - 1.0, "frac");
    log.write(o, "serve_classify");
  }
  return sh;
}

}  // namespace perfbench
