// Incremental µDBSCAN (docs/INCREMENTAL.md): exact insert/delete maintenance
// of the micro-cluster summary and the cluster graph, so `result()` after any
// interleaved update sequence equals mu_dbscan() fit-from-scratch on the
// surviving points — without a global recompute per update.
//
// The locality argument is the paper's own (Section IV): a point's
// eps-neighborhood lives inside micro-clusters whose centres are within
// eps + eps of it (members are strictly within eps of their centre —
// mc_candidate_radius in core/microcluster.hpp), DMC/CMC status is a pure
// function of per-MC counts (Lemmas 1-2), and cluster-graph connectivity is
// confined to reachable MCs (Lemma 3). An update therefore perturbs a
// bounded region:
//
//   INSERT p: one neighborhood scan counts N(p) and bumps |N(q)| for each
//   neighbor q; points crossing the MinPts threshold are *promoted* —
//   insertion is monotone, core status is never revoked. Each promotion
//   links the new core into the cluster graph with a union-find merge over
//   its core neighbors (the only edges that can appear are incident to a
//   new core).
//
//   ERASE x: neighbors lose one count; cores falling below MinPts are
//   *demoted*. The only edges that can disappear are incident to the failed
//   set F = {x if core} ∪ demoted, so a cluster can only split along F. Its
//   *seeds* are the surviving cores strictly within eps of F, and every
//   surviving component of an affected cluster contains one: walk any old
//   core-path from a survivor toward the failure — the first failed node's
//   predecessor is still core, adjacent to F, and in the walker's component.
//   Connectivity of the survivors is therefore decided by the seeds alone,
//   in two rounds whose cost follows the smaller side of a split:
//
//   Round 0 (no range query) unions seeds joined by a seed-seed edge, each
//   one the same strict sq_dist < eps^2 test collect_neighbors applies. The
//   seeds of one failed node all lie within eps of it, so in a dense region
//   they collapse to one group — the certificate that nothing split.
//
//   Round 1 (several groups left) runs one BFS frontier per group, stepped
//   round-robin one range query at a time. Frontiers that meet merge. A
//   frontier with nothing left to expand is closed under core adjacency: a
//   complete component. The walk stops when a single frontier is still
//   open; every exhausted one takes a fresh label, and the open one — never
//   enumerated — keeps the old label. Round-robin stepping means the open
//   frontier has expanded no more cores than the last one to close, so the
//   walk costs O(groups x largest component split off) queries, or, when
//   nothing splits, what the frontiers spend until they meet — never the
//   size of the cluster that keeps the label.
//
// Neighbour scan: each MC keeps a dimension-major copy of its members'
// coordinates (coordinate k of slot i at block[k * cap + i], slot order =
// member order, capacity doubling from 4), appended on join, compacted with
// the member list, and freed when a centres rebuild drops the MC. A scan
// runs the runtime-dispatched sq_dist_block_soa kernel (common/simd.hpp) over
// each candidate MC's block, keeps the slots with d2 < eps^2 without a
// branch, and only then drops the excluded and the erased ids. The kernel
// computes sq_dist's exact IEEE operation sequence on every target, so each
// neighbour list holds the same ids, d2 values and order as a per-member
// sq_dist loop, and every decision downstream is unchanged.
//
// Border points are maintained as a nearest-core cache ((d2, id)-minimal
// core strictly within eps), which makes result() canonical (see
// metrics/exactness.hpp: canonicalize_clustering) and O(survivors) with
// zero queries.
//
// Fallback policy: an optional cap on micro-clusters touched per update.
// When a pathological update (eps spanning the whole domain) exceeds it,
// the engine abandons the *local* graph repair and relabels globally from
// its own maintained counts — still exact, predictable cost, counted in
// inc_full_fallbacks. Counts and core flags are always maintained exactly
// and never fall back.
//
// Threading: single writer. Updates reuse member scratch buffers (the
// candidate list and the scan's d2/slot buffers are written even by the
// const collect_neighbors), and even the const readers (result(), via the
// label union-find's path halving) write to the object, so all access must
// be serialized by the caller.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/dataset.hpp"
#include "core/microcluster.hpp"
#include "index/rtree.hpp"
#include "metrics/clustering.hpp"
#include "obs/metrics.hpp"

namespace udb {

class IncrementalMuDbscan {
 public:
  struct Config {
    // Micro-clusters touched per update before the local graph repair is
    // abandoned for a global relabel (docs/INCREMENTAL.md §Fallback).
    // 0 = no cap: always repair locally.
    std::size_t max_touched_mcs_per_update = 0;
    // Optional parent metrics registry (not owned): inc_mcs_touched,
    // inc_graph_edges_repaired, inc_full_fallbacks and the inc_blast_radius
    // histogram are recorded per update when set.
    obs::MetricsRegistry* metrics = nullptr;
  };

  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t mcs_touched = 0;         // candidate MCs scanned, cumulative
    std::uint64_t graph_edges_repaired = 0;  // unions + split relabel writes
    std::uint64_t full_fallbacks = 0;      // updates that hit the cap
    friend bool operator==(const Stats&, const Stats&) = default;
  };

  // Two overloads instead of `Config cfg = {}`: a nested aggregate's default
  // member initializers are not usable as a default argument while the
  // enclosing class is still incomplete (GCC rejects it).
  IncrementalMuDbscan(std::size_t dim, const DbscanParams& params);
  IncrementalMuDbscan(std::size_t dim, const DbscanParams& params, Config cfg);

  // Ingest one point. Returned ids are dense, stable, and never reused;
  // after erasures they are *not* positions in result()/survivors() order.
  PointId insert(std::span<const double> pt);

  // Remove a point by id. Returns false if the id was never allocated or is
  // already erased. Exact: core flags, counts, labels and border attachments
  // of every surviving point are repaired before returning.
  bool erase(PointId id);

  // Remove the first (lowest-id) alive point whose coordinates are bitwise
  // equal to `pt` (memcmp semantics: -0.0 != +0.0, NaNs match by payload).
  // Returns the erased id, or kInvalidPoint if no alive point matches.
  // This is the WAL-tombstone replay primitive (docs/ROBUSTNESS.md).
  PointId erase_equal(std::span<const double> pt);

  [[nodiscard]] std::size_t size() const noexcept { return alive_count_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] const DbscanParams& params() const noexcept { return params_; }
  [[nodiscard]] bool alive(PointId id) const noexcept {
    return id < total_ && alive_[id] != 0;
  }
  [[nodiscard]] std::span<const double> point(PointId id) const noexcept {
    return {ptr(id), dim_};
  }
  [[nodiscard]] std::size_t num_mcs() const noexcept { return live_mcs_; }
  // Exact maintained core count (|{alive p : |N_eps(p)| >= MinPts}|).
  [[nodiscard]] std::size_t num_core() const noexcept { return core_count_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Canonical exact clustering of the alive points in insertion order:
  // identical (plain vector equality) to
  //   canonicalize_clustering(survivors(), params, mu_dbscan(survivors()))
  // after any interleaved insert/erase sequence. O(survivors), no queries.
  [[nodiscard]] ClusteringResult result() const;

  // The alive points as one contiguous Dataset in insertion order — the
  // point set result() is aligned with.
  [[nodiscard]] Dataset survivors() const;

  // Test hook: recomputes counts/flags/borders brute-force and throws
  // std::logic_error on any divergence from the maintained state. O(n^2).
  // It also audits every MC's coordinate block: capacity >= member count,
  // each slot bitwise equal (memcmp) to point(member), and no block left on
  // an MC a centres rebuild dropped.
  void check_invariants() const;

 private:
  struct Mc {
    std::vector<double> center;    // owned copy: survives centre-point erasure
    std::vector<PointId> members;  // may contain erased ids until compacted
    // Dimension-major copy of the members' coordinates in slot order:
    // coordinate k of members[i] at block[k * cap + i], cap = block_cap().
    std::vector<double> block;
    std::uint32_t alive_members = 0;
    bool in_tree = true;  // false once a centres-tree rebuild dropped it
  };

  // First block capacity of an MC; it doubles whenever the block is full.
  static constexpr std::size_t kMinBlockCap = 4;

  [[nodiscard]] const double* ptr(PointId id) const noexcept {
    return chunks_[id / kChunkPoints].get() +
           static_cast<std::size_t>(id % kChunkPoints) * dim_;
  }
  [[nodiscard]] std::size_t block_cap(const Mc& mc) const noexcept {
    return mc.block.size() / dim_;
  }

  using Neighbors = std::vector<std::pair<PointId, double>>;

  // Appends all alive points strictly within eps of q (excluding
  // `exclude`), as (id, squared distance) pairs. Bumps *touched by the
  // candidate MCs scanned.
  void collect_neighbors(const double* q, PointId exclude, Neighbors& out,
                         std::size_t* touched) const;

  void assign_to_mc(PointId id, const double* pt);
  // Appends id to mc's member list and pt to its block, growing both.
  void append_member(Mc& mc, PointId id, const double* pt);
  // Drops erased members from the list and the block together.
  void compact_members(Mc& mc);
  void maybe_rebuild_centers();

  // Label union-find (labels are slots in label_parent_, grown on demand).
  [[nodiscard]] std::int64_t find_label(std::int64_t l) const;
  std::int64_t fresh_label();
  std::int64_t union_labels(std::int64_t a, std::int64_t b);

  void promote_core(PointId x, const Neighbors* known_nbrs,
                    std::size_t* touched);
  void maybe_improve_border(PointId q, PointId core, double d2);
  void recompute_border(PointId q, std::size_t* touched);

  // Scoped split re-check after an erasure (docs/INCREMENTAL.md §Delete)
  // over the failed set in flipped_ and its neighborhoods fn_flat_/fn_off_.
  // Returns false if the blast-radius cap was exceeded mid-walk (labels are
  // then partial and the caller relabels globally).
  bool repair_after_failures(std::size_t* touched);
  // Rounds 0 and 1 for one affected cluster, whose first failure is
  // flipped_[first]; returns as above.
  bool split_if_disconnected(std::int64_t root, std::size_t first,
                             std::size_t* touched);
  [[nodiscard]] std::uint32_t front_root(std::uint32_t f);
  std::uint32_t merge_fronts(std::uint32_t a, std::uint32_t b);

  // Fallback: global relabel + border rebuild from maintained counts.
  void rebuild_labels_global();

  void finish_update(std::size_t touched, std::uint64_t edges_delta,
                     bool fell_back);

  std::size_t dim_;
  DbscanParams params_;
  Config cfg_;
  double eps2_;

  // Chunked coordinate storage: pointer-stable across growth.
  static constexpr std::size_t kChunkPoints = 4096;
  std::vector<std::unique_ptr<double[]>> chunks_;
  std::size_t total_ = 0;
  std::size_t alive_count_ = 0;
  std::size_t core_count_ = 0;

  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> nbr_count_;  // |N_eps strict|, self included
  std::vector<std::uint8_t> is_core_;
  std::vector<McId> mc_of_;

  std::vector<Mc> mcs_;
  std::size_t live_mcs_ = 0;
  RTree centers_;
  std::size_t center_entries_ = 0;       // entries in centers_ (incl. dead)
  std::size_t dead_center_entries_ = 0;  // tombstoned MCs still in centers_

  mutable std::vector<std::int64_t> label_parent_;  // mutable: path halving
  std::vector<std::int64_t> label_size_;            // union-by-size heuristic
  std::vector<std::int64_t> core_label_;  // per point; valid iff is_core_

  // Nearest-core border cache: for alive non-core q, border_core_[q] is the
  // (d2, id)-minimal alive core strictly within eps, or kInvalidPoint
  // (noise). Labels of borders are read through it at result() time, so
  // split relabels never touch borders.
  std::vector<PointId> border_core_;
  std::vector<double> border_d2_;

  // Per-update visit stamps (BFS visited set without clearing).
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t stamp_gen_ = 0;

  // Reusable scratch for the update path (single writer, see top).
  mutable std::vector<PointId> cands_;  // collect_neighbors' candidate MCs
  mutable std::vector<double> d2_;      // ... one MC's kernel output
  mutable std::vector<std::uint32_t> hits_;  // ... its slots within eps
  Neighbors nbrs_;    // N(p) of the point being inserted or erased
  Neighbors scan_;    // one-off scans: promotions, borders, BFS expansions
  std::vector<PointId> flipped_;  // promoted (insert) / failed set F (erase)
  Neighbors fn_flat_;             // neighborhoods of F, flattened ...
  std::vector<std::size_t> fn_off_;  // ... with per-node offsets

  // Split-check frontiers (Round 0 groups become Round 1 frontiers).
  struct Frontier {
    std::vector<PointId> done;  // expanded cores
    std::vector<PointId> todo;  // claimed cores, a FIFO from `next` on
    std::size_t next = 0;
    [[nodiscard]] bool waiting() const { return next < todo.size(); }
  };
  std::vector<Frontier> fronts_;
  std::vector<std::uint32_t> front_parent_;  // merged frontiers (union-find)
  std::vector<std::uint32_t> open_;   // frontiers still stepped
  std::vector<std::uint32_t> exhausted_;

  Stats stats_;
};

}  // namespace udb
