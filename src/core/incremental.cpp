#include "core/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/distance.hpp"
#include "common/simd.hpp"

namespace udb {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Frees a vector's storage (clear() alone keeps the capacity).
template <class T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}
}  // namespace

IncrementalMuDbscan::IncrementalMuDbscan(std::size_t dim,
                                         const DbscanParams& params)
    : IncrementalMuDbscan(dim, params, Config{}) {}

IncrementalMuDbscan::IncrementalMuDbscan(std::size_t dim,
                                         const DbscanParams& params,
                                         Config cfg)
    : dim_(dim),
      params_(params),
      cfg_(cfg),
      eps2_(params.eps * params.eps),
      centers_(dim) {
  if (dim_ == 0)
    throw std::invalid_argument("IncrementalMuDbscan: dim must be > 0");
  if (!(params_.eps > 0.0))
    throw std::invalid_argument("IncrementalMuDbscan: eps must be > 0");
  if (params_.min_pts == 0)
    throw std::invalid_argument("IncrementalMuDbscan: MinPts must be >= 1");
}

// ---------------------------------------------------------------------------
// Micro-cluster layer.
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::collect_neighbors(const double* q, PointId exclude,
                                            Neighbors& out,
                                            std::size_t* touched) const {
  cands_.clear();
  centers_.query_ball({q, dim_}, mc_candidate_radius(params_.eps, params_.eps),
                      cands_, /*strict=*/false);
  for (PointId cid : cands_) {
    const Mc& mc = mcs_[cid];
    if (mc.alive_members == 0) continue;
    if (touched) ++*touched;
    // One kernel call over the MC's block, then a branch-free pass keeping
    // the slots strictly within eps; exclude and dead ids are dropped from
    // those hits only. Slot order is member order, and the kernel computes
    // sq_dist's exact operation sequence, so the list is what a per-member
    // sq_dist loop would produce.
    const std::size_t cnt = mc.members.size();
    if (d2_.size() < cnt) {
      d2_.resize(cnt);
      hits_.resize(cnt);
    }
    sq_dist_block_soa(q, mc.block.data(), cnt, block_cap(mc), dim_,
                      d2_.data());
    std::size_t nhits = 0;
    for (std::size_t i = 0; i < cnt; ++i) {
      hits_[nhits] = static_cast<std::uint32_t>(i);
      nhits += d2_[i] < eps2_ ? 1 : 0;
    }
    for (std::size_t h = 0; h < nhits; ++h) {
      const std::uint32_t i = hits_[h];
      const PointId m = mc.members[i];
      if (m != exclude && alive_[m]) out.emplace_back(m, d2_[i]);
    }
  }
}

void IncrementalMuDbscan::append_member(Mc& mc, PointId id, const double* pt) {
  const std::size_t n = mc.members.size();
  std::size_t cap = block_cap(mc);
  if (n == cap) {
    const std::size_t grown = std::max(kMinBlockCap, 2 * cap);
    std::vector<double> block(grown * dim_);
    for (std::size_t k = 0; k < dim_; ++k)
      std::copy_n(mc.block.data() + k * cap, n, block.data() + k * grown);
    mc.block = std::move(block);
    mc.members.reserve(grown);
    cap = grown;
  }
  for (std::size_t k = 0; k < dim_; ++k) mc.block[k * cap + n] = pt[k];
  mc.members.push_back(id);
}

void IncrementalMuDbscan::assign_to_mc(PointId id, const double* pt) {
  // Join the first MC whose centre is strictly within eps (the streaming
  // assignment rule: no 2*eps deferral — a stream cannot replay a second
  // pass; exactness does not depend on the MC partition). A tombstoned MC
  // still in the centres tree may be revived here — its ghost centre keeps
  // the member-within-eps invariant.
  const PointId hit = centers_.first_within({pt, dim_}, params_.eps);
  if (hit != kInvalidPoint) {
    Mc& mc = mcs_[hit];
    if (mc.alive_members == 0) {
      ++live_mcs_;
      --dead_center_entries_;
      compact_members(mc);  // likely all-dead membership
    }
    append_member(mc, id, pt);
    ++mc.alive_members;
    mc_of_[id] = static_cast<McId>(hit);
    if (mc.members.size() > 16 && mc.alive_members * 2 < mc.members.size())
      compact_members(mc);
    return;
  }
  const McId z = static_cast<McId>(mcs_.size());
  Mc mc;
  mc.center.assign(pt, pt + dim_);
  append_member(mc, id, pt);
  mc.alive_members = 1;
  mcs_.push_back(std::move(mc));
  // The centre coordinates are the MC's own stable heap buffer (a vector
  // relocation moves the Mc struct, not the buffer), so the tree entry stays
  // valid for the MC's whole lifetime.
  centers_.insert(mcs_[z].center.data(), z);
  ++center_entries_;
  ++live_mcs_;
  mc_of_[id] = z;
}

void IncrementalMuDbscan::compact_members(Mc& mc) {
  // Both arrays in one pass: the survivors keep their relative slot order.
  const std::size_t cap = block_cap(mc);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < mc.members.size(); ++i) {
    const PointId m = mc.members[i];
    if (!alive_[m]) continue;
    if (kept != i) {
      mc.members[kept] = m;
      for (std::size_t k = 0; k < dim_; ++k)
        mc.block[k * cap + kept] = mc.block[k * cap + i];
    }
    ++kept;
  }
  mc.members.resize(kept);
}

void IncrementalMuDbscan::maybe_rebuild_centers() {
  // Caller just emptied one MC. The R-tree has no remove, so tombstoned
  // centres accumulate as ghost entries; once they outnumber the live ones
  // the tree is rebuilt over live centres only (dropped MCs can then never
  // be revived — `in_tree` records that).
  --live_mcs_;
  ++dead_center_entries_;
  if (center_entries_ < 64 || dead_center_entries_ * 2 <= center_entries_)
    return;
  RTree fresh(dim_);
  std::size_t entries = 0;
  for (std::size_t z = 0; z < mcs_.size(); ++z) {
    Mc& mc = mcs_[z];
    if (mc.alive_members == 0) {
      if (mc.in_tree) {
        mc.in_tree = false;
        release(mc.members);
        release(mc.block);
        release(mc.center);
      }
      continue;
    }
    fresh.insert(mc.center.data(), static_cast<PointId>(z));
    ++entries;
  }
  centers_ = std::move(fresh);
  center_entries_ = entries;
  dead_center_entries_ = 0;
}

// ---------------------------------------------------------------------------
// Label union-find.
// ---------------------------------------------------------------------------

std::int64_t IncrementalMuDbscan::find_label(std::int64_t l) const {
  while (label_parent_[l] != l) {
    label_parent_[l] = label_parent_[label_parent_[l]];  // path halving
    l = label_parent_[l];
  }
  return l;
}

std::int64_t IncrementalMuDbscan::fresh_label() {
  const auto l = static_cast<std::int64_t>(label_parent_.size());
  label_parent_.push_back(l);
  label_size_.push_back(1);
  return l;
}

std::int64_t IncrementalMuDbscan::union_labels(std::int64_t a, std::int64_t b) {
  a = find_label(a);
  b = find_label(b);
  if (a == b) return a;
  if (label_size_[a] < label_size_[b]) std::swap(a, b);
  label_parent_[b] = a;
  label_size_[a] += label_size_[b];
  ++stats_.graph_edges_repaired;
  return a;
}

// ---------------------------------------------------------------------------
// Border cache.
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::maybe_improve_border(PointId q, PointId core,
                                               double d2) {
  if (border_core_[q] == kInvalidPoint || d2 < border_d2_[q] ||
      (d2 == border_d2_[q] && core < border_core_[q])) {
    border_core_[q] = core;
    border_d2_[q] = d2;
  }
}

void IncrementalMuDbscan::recompute_border(PointId q, std::size_t* touched) {
  border_core_[q] = kInvalidPoint;
  border_d2_[q] = kInf;
  scan_.clear();
  collect_neighbors(ptr(q), q, scan_, touched);
  for (const auto& [c, d2] : scan_)
    if (is_core_[c]) maybe_improve_border(q, c, d2);
}

// ---------------------------------------------------------------------------
// Insert.
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::promote_core(PointId x, const Neighbors* known_nbrs,
                                       std::size_t* touched) {
  if (is_core_[x]) return;
  is_core_[x] = 1;
  ++core_count_;
  if (!known_nbrs) {
    scan_.clear();
    collect_neighbors(ptr(x), x, scan_, touched);
    known_nbrs = &scan_;
  }
  // Link the new core into the cluster graph: union the clusters of every
  // core neighbor (they all become one — x witnesses the connection).
  std::int64_t root = -1;
  for (const auto& [q, d2] : *known_nbrs) {
    if (!is_core_[q]) continue;
    const std::int64_t r = find_label(core_label_[q]);
    if (root < 0)
      root = r;
    else if (r != root)
      root = union_labels(root, r);
  }
  if (root < 0) {
    root = fresh_label();
  } else {
    ++label_size_[root];
    ++stats_.graph_edges_repaired;  // x attached to an existing cluster
  }
  core_label_[x] = root;
  border_core_[x] = kInvalidPoint;  // cores carry no border attachment
  border_d2_[x] = kInf;
  // x may now be the (d2, id)-minimal core for nearby non-core points.
  for (const auto& [q, d2] : *known_nbrs)
    if (!is_core_[q]) maybe_improve_border(q, x, d2);
}

PointId IncrementalMuDbscan::insert(std::span<const double> pt) {
  if (pt.size() != dim_)
    throw std::invalid_argument("IncrementalMuDbscan::insert: wrong dimension");

  if (total_ % kChunkPoints == 0)
    chunks_.push_back(std::make_unique<double[]>(kChunkPoints * dim_));
  const PointId p = static_cast<PointId>(total_++);
  std::memcpy(const_cast<double*>(ptr(p)), pt.data(), dim_ * sizeof(double));
  alive_.push_back(1);
  nbr_count_.push_back(1);  // self
  is_core_.push_back(0);
  mc_of_.push_back(kInvalidMc);
  core_label_.push_back(-1);
  border_core_.push_back(kInvalidPoint);
  border_d2_.push_back(kInf);
  stamp_.push_back(0);
  ++alive_count_;
  ++stats_.inserts;
  const std::uint64_t edges0 = stats_.graph_edges_repaired;

  std::size_t touched = 0;
  nbrs_.clear();
  collect_neighbors(ptr(p), p, nbrs_, &touched);

  // Exact count maintenance (never falls back): insertion only raises
  // counts, so the only status changes are promotions inside N(p) ∪ {p}.
  std::vector<PointId>& promoted = flipped_;
  promoted.clear();
  nbr_count_[p] = static_cast<std::uint32_t>(nbrs_.size()) + 1;
  for (const auto& [q, d2] : nbrs_) {
    ++nbr_count_[q];
    if (!is_core_[q] && nbr_count_[q] >= params_.min_pts) promoted.push_back(q);
  }
  if (nbr_count_[p] >= params_.min_pts) promoted.push_back(p);

  assign_to_mc(p, ptr(p));

  bool fell_back = false;
  const std::size_t cap = cfg_.max_touched_mcs_per_update;
  if (cap != 0 && touched + promoted.size() > cap) {
    // Local repair would exceed the blast-radius cap (each promotion costs
    // one more neighborhood scan): keep the exact flags, relabel globally.
    for (PointId x : promoted) {
      if (is_core_[x]) continue;
      is_core_[x] = 1;
      ++core_count_;
    }
    rebuild_labels_global();
    fell_back = true;
  } else {
    // p's border attachment against the already-existing cores; newly
    // promoted cores improve it below (p is one of their neighbors).
    for (const auto& [q, d2] : nbrs_)
      if (is_core_[q]) maybe_improve_border(p, q, d2);
    for (PointId x : promoted)
      promote_core(x, x == p ? &nbrs_ : nullptr, &touched);
  }

  finish_update(touched, stats_.graph_edges_repaired - edges0, fell_back);
  return p;
}

// ---------------------------------------------------------------------------
// Erase.
// ---------------------------------------------------------------------------

bool IncrementalMuDbscan::erase(PointId id) {
  if (id >= total_ || !alive_[id]) return false;
  ++stats_.deletes;
  const std::uint64_t edges0 = stats_.graph_edges_repaired;

  std::size_t touched = 0;
  nbrs_.clear();
  collect_neighbors(ptr(id), id, nbrs_, &touched);
  const bool was_core = is_core_[id] != 0;

  alive_[id] = 0;
  --alive_count_;
  if (was_core) {
    is_core_[id] = 0;
    --core_count_;
  }
  border_core_[id] = kInvalidPoint;
  border_d2_[id] = kInf;
  {
    Mc& mc = mcs_[mc_of_[id]];
    --mc.alive_members;
    if (mc.alive_members == 0)
      maybe_rebuild_centers();
    else if (mc.members.size() > 16 &&
             mc.alive_members * 2 < mc.members.size())
      compact_members(mc);
  }

  // Failed set F: the nodes whose incident cluster-graph edges vanished —
  // x if it was core, then every demotion. Deletion only lowers counts, so
  // the only status changes are demotions inside N(x).
  std::vector<PointId>& failed = flipped_;
  failed.clear();
  if (was_core) failed.push_back(id);
  for (const auto& [q, d2] : nbrs_) {
    --nbr_count_[q];
    if (is_core_[q] && nbr_count_[q] < params_.min_pts) {
      is_core_[q] = 0;
      --core_count_;
      failed.push_back(q);
    }
  }
  if (failed.empty()) {
    // Core set unchanged — no edge can have disappeared, no border cache
    // entry can have died (caches point at cores only).
    finish_update(touched, stats_.graph_edges_repaired - edges0, false);
    return true;
  }

  // Neighborhoods of the failed nodes (flattened): seeds for the split
  // re-check and the candidates for border re-attachment. x's own list was
  // collected pre-erasure; every entry in it is still alive.
  fn_flat_.clear();
  fn_off_.assign(1, 0);
  for (PointId f : failed) {
    if (f == id)
      fn_flat_.insert(fn_flat_.end(), nbrs_.begin(), nbrs_.end());
    else
      collect_neighbors(ptr(f), f, fn_flat_, &touched);
    fn_off_.push_back(fn_flat_.size());
  }

  const std::size_t cap = cfg_.max_touched_mcs_per_update;
  bool fell_back = false;
  if (cap != 0 && touched > cap) {
    rebuild_labels_global();
    fell_back = true;
  } else {
    if (!repair_after_failures(&touched)) {
      // The split walk blew past the cap mid-flight (it stops once over
      // budget; any partial relabeling is overwritten here).
      // Predictable-cost exact relabel instead.
      rebuild_labels_global();
      fell_back = true;
    } else {
      // Demoted cores become borders (or noise): their neighborhoods are in
      // hand, and every core within eps of them is in there.
      for (std::size_t i = 0; i < failed.size(); ++i) {
        const PointId f = failed[i];
        if (f == id) continue;
        border_core_[f] = kInvalidPoint;
        border_d2_[f] = kInf;
        for (std::size_t k = fn_off_[i]; k < fn_off_[i + 1]; ++k)
          if (is_core_[fn_flat_[k].first])
            maybe_improve_border(f, fn_flat_[k].first, fn_flat_[k].second);
      }
      // Borders whose cached nearest core died or was demoted: they are
      // within eps of that core, so they appear in its neighbor list.
      const std::uint32_t gen = ++stamp_gen_;
      for (const auto& [q, d2] : fn_flat_) {
        if (!alive_[q] || is_core_[q] || stamp_[q] == gen) continue;
        stamp_[q] = gen;
        const PointId bc = border_core_[q];
        if (bc != kInvalidPoint && (!alive_[bc] || !is_core_[bc]))
          recompute_border(q, &touched);
      }
    }
  }

  finish_update(touched, stats_.graph_edges_repaired - edges0, fell_back);
  return true;
}

PointId IncrementalMuDbscan::erase_equal(std::span<const double> pt) {
  if (pt.size() != dim_)
    throw std::invalid_argument(
        "IncrementalMuDbscan::erase_equal: wrong dimension");
  const std::size_t bytes = dim_ * sizeof(double);
  PointId hit = kInvalidPoint;
  if (std::all_of(pt.begin(), pt.end(),
                  [](double v) { return std::isfinite(v); })) {
    // A bitwise-equal point sits at pt, and every alive point is strictly
    // within eps of its MC's centre, so its MC is among the centres within
    // eps of pt (the tree applies the same sq_dist, non-strict here).
    cands_.clear();
    centers_.query_ball(pt, params_.eps, cands_, /*strict=*/false);
    for (PointId cid : cands_) {
      const Mc& mc = mcs_[cid];
      if (mc.alive_members == 0) continue;
      for (PointId m : mc.members)
        if (m < hit && alive_[m] && std::memcmp(ptr(m), pt.data(), bytes) == 0)
          hit = m;
    }
  } else {
    // A non-finite point may have no MC centre within eps (it is at no
    // finite distance from anything): scan.
    for (PointId id = 0; id < total_ && hit == kInvalidPoint; ++id)
      if (alive_[id] && std::memcmp(ptr(id), pt.data(), bytes) == 0) hit = id;
  }
  if (hit != kInvalidPoint) erase(hit);
  return hit;
}

bool IncrementalMuDbscan::repair_after_failures(std::size_t* touched) {
  // Old clusters are read before any relabel (fresh labels never touch the
  // old roots). Each failed core leaves its cluster's size, and each
  // affected cluster is checked once, from its first failure on.
  for (PointId f : flipped_) --label_size_[find_label(core_label_[f])];
  for (std::size_t i = 0; i < flipped_.size(); ++i) {
    const std::int64_t root = find_label(core_label_[flipped_[i]]);
    bool checked = false;
    for (std::size_t j = 0; j < i && !checked; ++j)
      checked = find_label(core_label_[flipped_[j]]) == root;
    if (!checked && !split_if_disconnected(root, i, touched)) return false;
  }
  return true;
}

bool IncrementalMuDbscan::split_if_disconnected(std::int64_t root,
                                                std::size_t first,
                                                std::size_t* touched) {
  // Round 0: group the seeds by seed-seed edges, no range query. Group g
  // lives in fronts_[g].todo; a group emptied by a merge stays as a hole.
  std::size_t ngroups = 0;
  std::size_t open = 0;
  auto group_seed = [&](PointId s) {
    const double* ps = ptr(s);
    std::size_t into = ngroups;
    for (std::size_t g = 0; g < ngroups; ++g) {
      std::vector<PointId>& grp = fronts_[g].todo;
      if (grp.empty() ||
          std::none_of(grp.rbegin(), grp.rend(), [&](PointId m) {
            return sq_dist(ps, ptr(m), dim_) < eps2_;
          }))
        continue;
      if (into == ngroups) {
        into = g;
      } else {  // s bridges two groups
        std::vector<PointId>& dst = fronts_[into].todo;
        dst.insert(dst.end(), grp.begin(), grp.end());
        grp.clear();
        --open;
      }
    }
    if (into == ngroups) {
      if (fronts_.size() == ngroups) fronts_.emplace_back();
      fronts_[ngroups].todo.clear();
      ++ngroups;
      ++open;
    }
    fronts_[into].todo.push_back(s);
  };
  // The seeds: cores in the neighborhoods of this cluster's failures, each
  // taken once.
  const std::uint32_t seen = ++stamp_gen_;
  for (std::size_t i = first; i < flipped_.size(); ++i) {
    if (find_label(core_label_[flipped_[i]]) != root) continue;
    for (std::size_t k = fn_off_[i]; k < fn_off_[i + 1]; ++k) {
      const PointId s = fn_flat_[k].first;
      if (!is_core_[s] || stamp_[s] == seen) continue;
      stamp_[s] = seen;
      group_seed(s);
    }
  }
  // Certified: every seed in one component (no seed: the cluster lost all
  // its cores).
  if (open <= 1) return true;

  // Round 1: one frontier per group, stepped round-robin, one expansion per
  // turn in FIFO order, so frontiers grow outward from the failure and meet
  // near it. A claimed core's stamp is base + its claiming frontier.
  const std::uint32_t base = stamp_gen_ + 1;
  stamp_gen_ += static_cast<std::uint32_t>(ngroups);
  auto claimed_by = [&](PointId q) { return stamp_[q] - base; };
  if (front_parent_.size() < ngroups) front_parent_.resize(ngroups);
  open_.clear();
  exhausted_.clear();
  for (std::size_t g = 0; g < ngroups; ++g) {
    Frontier& fr = fronts_[g];
    if (fr.todo.empty()) continue;
    const auto id = static_cast<std::uint32_t>(g);
    fr.done.clear();
    fr.next = 0;
    front_parent_[g] = id;
    open_.push_back(id);
    for (PointId m : fr.todo) stamp_[m] = base + id;
  }
  const std::size_t cap = cfg_.max_touched_mcs_per_update;
  for (std::size_t turn = 0; open > 1;) {
    if (turn >= open_.size()) turn = 0;
    std::uint32_t cur = open_[turn];
    if (front_root(cur) != cur || !fronts_[cur].waiting()) {
      // Merged into another frontier, or closed: a complete component.
      if (front_root(cur) == cur) {
        exhausted_.push_back(cur);
        --open;
      }
      open_[turn] = open_.back();
      open_.pop_back();
      continue;
    }
    if (cap != 0 && *touched > cap) return false;  // caller falls back
    const PointId c = fronts_[cur].todo[fronts_[cur].next++];
    fronts_[cur].done.push_back(c);
    scan_.clear();
    collect_neighbors(ptr(c), c, scan_, touched);
    for (const auto& [q, d2] : scan_) {
      if (!is_core_[q]) continue;
      if (claimed_by(q) >= ngroups) {
        stamp_[q] = base + cur;
        fronts_[cur].todo.push_back(q);
      } else if (const std::uint32_t o = front_root(claimed_by(q)); o != cur) {
        cur = merge_fronts(cur, o);  // o is open: closed ones are unreachable
        --open;
      }
    }
    ++turn;
  }

  // Every exhausted frontier is a whole component split off the cluster;
  // the one still open keeps the old label without being enumerated.
  for (std::uint32_t e : exhausted_) {
    const std::vector<PointId>& comp = fronts_[e].done;
    const std::int64_t nl = fresh_label();
    const auto size = static_cast<std::int64_t>(comp.size());
    label_size_[nl] = size;
    label_size_[root] -= size;
    for (PointId m : comp) core_label_[m] = nl;
    stats_.graph_edges_repaired += comp.size();
  }
  return true;
}

std::uint32_t IncrementalMuDbscan::front_root(std::uint32_t f) {
  while (front_parent_[f] != f) {
    front_parent_[f] = front_parent_[front_parent_[f]];
    f = front_parent_[f];
  }
  return f;
}

std::uint32_t IncrementalMuDbscan::merge_fronts(std::uint32_t a,
                                                std::uint32_t b) {
  // Union by size: the smaller frontier's lists move into the larger one.
  auto size = [&](std::uint32_t f) {
    return fronts_[f].done.size() + fronts_[f].todo.size() - fronts_[f].next;
  };
  if (size(a) < size(b)) std::swap(a, b);
  Frontier& big = fronts_[a];
  Frontier& small = fronts_[b];
  big.done.insert(big.done.end(), small.done.begin(), small.done.end());
  big.todo.insert(big.todo.end(),
                  small.todo.begin() + static_cast<std::ptrdiff_t>(small.next),
                  small.todo.end());
  small.done.clear();
  small.todo.clear();
  small.next = 0;
  front_parent_[b] = a;
  return a;
}

// ---------------------------------------------------------------------------
// Fallback: global relabel from maintained flags (no count recomputation).
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::rebuild_labels_global() {
  label_parent_.clear();
  label_size_.clear();
  for (PointId id = 0; id < total_; ++id) {
    if (!alive_[id]) continue;
    if (!is_core_[id]) {
      border_core_[id] = kInvalidPoint;
      border_d2_[id] = kInf;
    }
  }
  const std::uint32_t gen = ++stamp_gen_;
  std::vector<PointId> queue;
  std::vector<std::pair<PointId, double>> nbrs;
  for (PointId id = 0; id < total_; ++id) {
    if (!alive_[id] || !is_core_[id] || stamp_[id] == gen) continue;
    const std::int64_t l = fresh_label();
    queue.clear();
    queue.push_back(id);
    stamp_[id] = gen;
    while (!queue.empty()) {
      const PointId c = queue.back();
      queue.pop_back();
      core_label_[c] = l;
      nbrs.clear();
      collect_neighbors(ptr(c), c, nbrs, nullptr);
      for (const auto& [q, d2] : nbrs) {
        if (is_core_[q]) {
          if (stamp_[q] != gen) {
            stamp_[q] = gen;
            queue.push_back(q);
            ++label_size_[l];
          }
        } else {
          maybe_improve_border(q, c, d2);
        }
      }
    }
  }
}

void IncrementalMuDbscan::finish_update(std::size_t touched,
                                        std::uint64_t edges_delta,
                                        bool fell_back) {
  stats_.mcs_touched += touched;
  if (fell_back) ++stats_.full_fallbacks;
  if (cfg_.metrics) {
    cfg_.metrics->add(obs::Counter::kIncMcsTouched, touched);
    if (edges_delta != 0)
      cfg_.metrics->add(obs::Counter::kIncGraphEdgesRepaired, edges_delta);
    if (fell_back) cfg_.metrics->add(obs::Counter::kIncFullFallbacks);
    cfg_.metrics->observe(obs::Hist::kIncBlastRadius, touched);
  }
}

// ---------------------------------------------------------------------------
// Extraction.
// ---------------------------------------------------------------------------

ClusteringResult IncrementalMuDbscan::result() const {
  ClusteringResult out;
  out.label.reserve(alive_count_);
  out.is_core.reserve(alive_count_);
  std::vector<std::int64_t> renum(label_parent_.size(), -1);
  std::int64_t next = 0;
  for (PointId id = 0; id < total_; ++id) {
    if (!alive_[id]) continue;
    std::int64_t lab = kNoise;
    PointId via = kInvalidPoint;
    if (is_core_[id])
      via = id;
    else if (border_core_[id] != kInvalidPoint)
      via = border_core_[id];
    if (via != kInvalidPoint) {
      const std::int64_t root = find_label(core_label_[via]);
      if (renum[root] < 0) renum[root] = next++;
      lab = renum[root];
    }
    out.label.push_back(lab);
    out.is_core.push_back(is_core_[id]);
  }
  return out;
}

Dataset IncrementalMuDbscan::survivors() const {
  Dataset out = Dataset::empty(dim_);
  out.reserve(alive_count_);
  for (PointId id = 0; id < total_; ++id)
    if (alive_[id]) out.push_back({ptr(id), dim_});
  return out;
}

// ---------------------------------------------------------------------------
// Invariant audit (tests only — O(n^2)).
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::check_invariants() const {
  // Counts and core flags against a brute-force recount.
  for (PointId i = 0; i < total_; ++i) {
    if (!alive_[i]) continue;
    std::uint32_t cnt = 0;
    for (PointId j = 0; j < total_; ++j)
      if (alive_[j] && sq_dist(ptr(i), ptr(j), dim_) < eps2_) ++cnt;
    if (cnt != nbr_count_[i])
      throw std::logic_error("incremental: nbr_count drift");
    if ((cnt >= params_.min_pts) != (is_core_[i] != 0))
      throw std::logic_error("incremental: core flag drift");
    if (!is_core_[i] && border_core_[i] != kInvalidPoint) {
      const PointId bc = border_core_[i];
      if (!alive_[bc] || !is_core_[bc])
        throw std::logic_error("incremental: border cache points at non-core");
      // Must be the (d2, id)-minimal core strictly within eps.
      for (PointId j = 0; j < total_; ++j) {
        if (!alive_[j] || !is_core_[j]) continue;
        const double d2 = sq_dist(ptr(i), ptr(j), dim_);
        if (d2 >= eps2_) continue;
        if (d2 < border_d2_[i] || (d2 == border_d2_[i] && j < bc))
          throw std::logic_error("incremental: border cache not minimal");
      }
    }
  }
  // Micro-cluster structure.
  std::size_t alive_sum = 0;
  std::size_t live = 0;
  for (std::size_t z = 0; z < mcs_.size(); ++z) {
    const Mc& mc = mcs_[z];
    if (!mc.in_tree && mc.block.capacity() != 0)
      throw std::logic_error("incremental: dropped MC still holds a block");
    const std::size_t cap = block_cap(mc);
    if (cap < mc.members.size())
      throw std::logic_error("incremental: block capacity below member count");
    std::size_t alive_here = 0;
    for (std::size_t i = 0; i < mc.members.size(); ++i) {
      const PointId m = mc.members[i];
      for (std::size_t k = 0; k < dim_; ++k)
        if (std::memcmp(&mc.block[k * cap + i], ptr(m) + k, sizeof(double)) !=
            0)
          throw std::logic_error("incremental: block slot differs from point");
      if (!alive_[m]) continue;
      ++alive_here;
      if (mc_of_[m] != static_cast<McId>(z))
        throw std::logic_error("incremental: mc_of mismatch");
      if (sq_dist(mc.center.data(), ptr(m), dim_) >= eps2_)
        throw std::logic_error("incremental: member outside its MC");
    }
    if (alive_here != mc.alive_members)
      throw std::logic_error("incremental: alive_members drift");
    alive_sum += alive_here;
    if (alive_here > 0) ++live;
  }
  if (alive_sum != alive_count_ || live != live_mcs_)
    throw std::logic_error("incremental: MC population drift");
  // Label partition == connected components of the core graph.
  std::vector<std::int64_t> comp(total_, -1);
  std::int64_t ncomp = 0;
  for (PointId i = 0; i < total_; ++i) {
    if (!alive_[i] || !is_core_[i] || comp[i] >= 0) continue;
    std::vector<PointId> queue{i};
    comp[i] = ncomp;
    while (!queue.empty()) {
      const PointId c = queue.back();
      queue.pop_back();
      for (PointId j = 0; j < total_; ++j) {
        if (!alive_[j] || !is_core_[j] || comp[j] >= 0) continue;
        if (sq_dist(ptr(c), ptr(j), dim_) < eps2_) {
          comp[j] = ncomp;
          queue.push_back(j);
        }
      }
    }
    ++ncomp;
  }
  std::vector<std::int64_t> comp_to_root(static_cast<std::size_t>(ncomp), -1);
  std::vector<std::int64_t> seen_roots;
  for (PointId i = 0; i < total_; ++i) {
    if (!alive_[i] || !is_core_[i]) continue;
    const std::int64_t root = find_label(core_label_[i]);
    std::int64_t& slot = comp_to_root[comp[i]];
    if (slot < 0) {
      for (std::int64_t r : seen_roots)
        if (r == root)
          throw std::logic_error("incremental: one label spans two components");
      seen_roots.push_back(root);
      slot = root;
    } else if (slot != root) {
      throw std::logic_error("incremental: component carries two labels");
    }
  }
  // Every root's size is the number of alive cores it labels.
  std::vector<std::int64_t> cores_under(label_parent_.size(), 0);
  for (PointId i = 0; i < total_; ++i)
    if (alive_[i] && is_core_[i]) ++cores_under[find_label(core_label_[i])];
  for (std::size_t l = 0; l < label_parent_.size(); ++l)
    if (label_parent_[l] == static_cast<std::int64_t>(l) &&
        label_size_[l] != cores_under[l])
      throw std::logic_error("incremental: label size drift");
}

}  // namespace udb
