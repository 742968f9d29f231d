#include "core/murtree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/distance.hpp"
#include "obs/trace.hpp"

namespace udb {

namespace {
// Sequential-sweep checkpoint stride: cheap relative to the per-point index
// probes, frequent enough that cancellation latency stays in the low
// milliseconds even on slow hosts.
constexpr std::size_t kBuildCheckStride = 2048;

// Centre-grid geometry. Why one 3^d block covers every centre a probe of
// radius R <= 3*eps can accept, under rounding: if sq_dist(q, c) passes the
// probe's test against fl(R*R), each axis satisfies |c_k - q_k| <=
// R(1 + (d+4)u) (u = 2^-53; the sum has at most d+3 roundings and
// underflow is excluded by the eps range). The cell index of x is
// floor(fl(x / side)) and fl(x / side) = (x / side)(1 + t), |t| <= u, so
// for |x| / side <= 2^40 the two quotients differ by at most
// (1 + (d+4)u) / (1 + 2^-10) + 2^-12 < 1, and their floors by at most 1.
// The same bound with R <= k*3*eps gives k for larger serving radii.
constexpr double kCellSlack = 1.0 + 0x1p-10;
constexpr double kMaxCellIndex = 0x1p40;
constexpr double kMinGridEps = 0x1p-500;
constexpr double kMaxGridEps = 0x1p500;

std::uint64_t hash_cell(const std::int64_t* cell, std::size_t dim) noexcept {
  std::uint64_t h = 0;
  for (std::size_t k = 0; k < dim; ++k)
    h = (h ^ static_cast<std::uint64_t>(cell[k])) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;  // fold the well-mixed high bits into the slot bits
  return h * 0xd6e8feb86659fd93ULL >> 32;
}
}  // namespace

// ---------------------------------------------------------------------------
// CentreGrid

// Level-1 hash grid over MC centres (the low-d regime). Cells are cubes of
// side 3*eps*(1 + 2^-10); a probe of radius R reads the cells within
// Chebyshev distance k of the query's cell, k = 1 for every R <= 3*eps.
// Layout: the occupied cells are numbered in order of first use; per cell
// the grid keeps its full int64 coordinates and its last-founded MC. An
// open-addressing table of u32 cell numbers (load <= 1/2) finds a cell from
// its coordinates; a miss ends at an empty u32 slot without reading any key.
// One u32 `next` link per MC threads a cell's MCs into a ring in founding
// order (next of the last is the first, so appends need no head pointer),
// and one PointId per MC names its centre, so probes never touch the MC
// records.
class MuRTree::CentreGrid {
 public:
  // Whether the grid can index `ds` at `eps`: d <= kLevel1GridMaxDim, eps
  // in a range where 3*eps and its square are normal doubles, and every
  // coordinate's cell index within +-2^40 (the rounding argument above
  // needs the headroom; it also keeps int64 arithmetic far from overflow).
  // Decided from the data before construction.
  [[nodiscard]] static bool admissible(const Dataset& ds, double eps);

  CentreGrid(const Dataset& ds, double eps);

  // Appends a centre; its MC id is the number of centres inserted before.
  void insert(PointId centre);

  // Calls fn(id, sq_dist(q, centre)) for every centre that can lie within
  // `radius` of q — a superset, the caller applies its own comparison —
  // until fn returns false. Order: the home cell first, then the other
  // cells of the (2k+1)^d block by offset, lexicographically (k = 1 for
  // radius <= 3*eps); founding order within a cell. A query outside the
  // grid's coordinate range, or a k > 1 block that outnumbers the centres,
  // scans every centre in founding order instead. Thread-safe against
  // other visits.
  template <class Fn>
  void visit(std::span<const double> q, double radius, Fn&& fn) const;

  [[nodiscard]] std::size_t memory_bytes() const noexcept;
  [[nodiscard]] std::uint64_t cells_probed() const noexcept {
    return cells_probed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t distance_evals() const noexcept {
    return dist_evals_.load(std::memory_order_relaxed);
  }

  // Throws std::logic_error unless the grid holds exactly the given
  // centres (in MC id order), each listed once in the cell it maps to.
  void check_invariants(const Dataset& ds,
                        const std::vector<MicroCluster>& mcs) const;

 private:
  using Key = std::int64_t;
  using Cell = std::array<Key, kLevel1GridMaxDim>;

  static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);

  // false: a coordinate lies outside the grid's range (or is NaN).
  [[nodiscard]] bool cell_of(const double* x, Key* cell) const noexcept;
  // The table slot holding `cell`'s number, or the empty slot ending its
  // probe sequence.
  [[nodiscard]] std::size_t slot_of(const Key* cell) const noexcept;
  // Last-founded MC of `cell`, or kInvalidMc when no centre lies in it.
  [[nodiscard]] McId last_in(const Key* cell) const noexcept {
    const std::uint32_t c = table_[slot_of(cell)];
    return c == kEmpty ? kInvalidMc : last_[c];
  }

  const Dataset* ds_;
  std::size_t dim_;
  double reach_;  // 3*eps, the largest radius answered from one 3^d block
  double side_;
  std::vector<std::uint32_t> table_;  // cell numbers by hash, or kEmpty
  std::vector<Key> keys_;             // per cell: coordinates, dim_ each
  std::vector<McId> last_;            // per cell: last-founded MC
  std::vector<McId> next_;            // per MC: next MC of its cell's ring
  std::vector<PointId> centre_;       // per MC: centre point
  mutable std::atomic<std::uint64_t> cells_probed_{0};
  mutable std::atomic<std::uint64_t> dist_evals_{0};
};

bool MuRTree::CentreGrid::admissible(const Dataset& ds, double eps) {
  if (ds.dim() > kLevel1GridMaxDim) return false;
  if (!(eps >= kMinGridEps && eps <= kMaxGridEps)) return false;
  const double limit = kMaxCellIndex * (3.0 * eps * kCellSlack);
  for (double x : ds.raw())
    if (!(std::fabs(x) <= limit)) return false;
  return true;
}

MuRTree::CentreGrid::CentreGrid(const Dataset& ds, double eps)
    : ds_(&ds),
      dim_(ds.dim()),
      reach_(3.0 * eps),
      side_(3.0 * eps * kCellSlack) {
  table_.assign(16, kEmpty);
}

bool MuRTree::CentreGrid::cell_of(const double* x, Key* cell) const noexcept {
  for (std::size_t k = 0; k < dim_; ++k) {
    const double c = std::floor(x[k] / side_);
    if (!(std::fabs(c) <= kMaxCellIndex)) return false;
    cell[k] = static_cast<Key>(c);
  }
  return true;
}

std::size_t MuRTree::CentreGrid::slot_of(const Key* cell) const noexcept {
  const std::size_t mask = table_.size() - 1;
  std::size_t s = hash_cell(cell, dim_) & mask;
  while (table_[s] != kEmpty &&
         !std::equal(cell, cell + dim_, keys_.data() + table_[s] * dim_))
    s = (s + 1) & mask;
  return s;
}

void MuRTree::CentreGrid::insert(PointId centre_id) {
  const McId id = static_cast<McId>(next_.size());
  Cell cell{};
  // admissible() vetted every dataset coordinate, so the cell is in range.
  (void)cell_of(ds_->ptr(centre_id), cell.data());
  centre_.push_back(centre_id);
  const std::size_t s = slot_of(cell.data());
  if (table_[s] != kEmpty) {
    // Splice in after the cell's last MC, closing the ring on its first.
    McId& last = last_[table_[s]];
    next_.push_back(next_[last]);
    next_[last] = id;
    last = id;
    return;
  }
  next_.push_back(id);
  table_[s] = static_cast<std::uint32_t>(last_.size());
  keys_.insert(keys_.end(), cell.begin(), cell.begin() + dim_);
  last_.push_back(id);
  if (2 * last_.size() > table_.size()) {
    table_.assign(2 * table_.size(), kEmpty);
    for (std::uint32_t c = 0; c < last_.size(); ++c)
      table_[slot_of(keys_.data() + c * dim_)] = c;
  }
}

template <class Fn>
void MuRTree::CentreGrid::visit(std::span<const double> q, double radius,
                                Fn&& fn) const {
  std::uint64_t probed = 0;
  std::uint64_t evals = 0;
  // Calls fn on each centre of the cell in founding order; false = stop.
  auto scan_cell = [&](const Key* cell) {
    ++probed;
    const McId last = last_in(cell);
    if (last == kInvalidMc) return true;
    McId id = last;
    do {
      id = next_[id];
      ++evals;
      if (!fn(id, sq_dist(q.data(), ds_->ptr(centre_[id]), dim_)))
        return false;
    } while (id != last);
    return true;
  };
  // Chebyshev cell radius k: the smallest k >= 1 with k * 3*eps >= radius.
  // A radius of n or more cells (n centres) needs a block of (2k+1)^d > n
  // cells, so it scans linearly without computing k; that also keeps k below
  // 2^32, where k += 1 is exact and the loop ends. NaN and infinite radii
  // fail the comparison and scan too.
  const auto n = static_cast<double>(next_.size());
  double k = 1.0;
  bool scan = false;
  if (!(radius <= reach_)) {
    scan = !(radius / reach_ < n);
    if (!scan) {
      k = std::ceil(radius / reach_);
      while (k * reach_ < radius) k += 1.0;
    }
  }
  double block = 1.0;
  for (std::size_t i = 0; i < dim_ && block <= n; ++i) block *= 2.0 * k + 1.0;
  Cell home{};
  if (!scan && cell_of(q.data(), home.data()) && (k == 1.0 || block <= n)) {
    // Home cell first, then the other offsets of [-k, k]^d by odometer,
    // lexicographically. k = 1 (every build probe) always takes this path,
    // so the join rule never depends on how many centres exist.
    const auto ki = static_cast<Key>(k);
    Cell off{};
    Cell cell{};
    std::fill_n(off.begin(), dim_, -ki);
    for (bool more = scan_cell(home.data()); more;) {
      if (std::any_of(off.begin(), off.begin() + dim_,
                      [](Key v) { return v != 0; })) {
        for (std::size_t i = 0; i < dim_; ++i) cell[i] = home[i] + off[i];
        if (!scan_cell(cell.data())) break;
      }
      std::size_t axis = dim_;
      while (axis > 0 && off[axis - 1] == ki) off[--axis] = -ki;
      more = axis > 0;
      if (more) ++off[axis - 1];
    }
  } else {
    // Linear scan: the k > 1 block outnumbers the centres, or the query
    // lies outside the range where the cell arithmetic is exact.
    for (McId id = 0; id < next_.size(); ++id) {
      ++evals;
      if (!fn(id, sq_dist(q.data(), ds_->ptr(centre_[id]), dim_))) break;
    }
  }
  cells_probed_.fetch_add(probed, std::memory_order_relaxed);
  dist_evals_.fetch_add(evals, std::memory_order_relaxed);
}

std::size_t MuRTree::CentreGrid::memory_bytes() const noexcept {
  return vector_bytes(table_) + vector_bytes(keys_) + vector_bytes(last_) +
         vector_bytes(next_) + vector_bytes(centre_);
}

void MuRTree::CentreGrid::check_invariants(
    const Dataset& ds, const std::vector<MicroCluster>& mcs) const {
  if (next_.size() != mcs.size())
    throw std::logic_error("CentreGrid: entry count != num_mcs");
  if (static_cast<std::size_t>(std::count(table_.begin(), table_.end(),
                                          kEmpty)) !=
      table_.size() - last_.size())
    throw std::logic_error("CentreGrid: table does not list every cell once");
  std::size_t listed = 0;
  for (std::uint32_t c = 0; c < last_.size(); ++c) {
    const Key* key = keys_.data() + c * dim_;
    if (table_[slot_of(key)] != c)
      throw std::logic_error("CentreGrid: cell unreachable from its hash");
    // Walk the ring from the cell's first MC; ids must ascend up to last_[c].
    McId prev = kInvalidMc;
    for (McId id = next_[last_[c]];; id = next_[id]) {
      if (id >= mcs.size() || (prev != kInvalidMc && id <= prev))
        throw std::logic_error("CentreGrid: cell list out of founding order");
      if (centre_[id] != mcs[id].center)
        throw std::logic_error("CentreGrid: stale centre");
      Cell cell{};
      if (!cell_of(ds.ptr(mcs[id].center), cell.data()) ||
          !std::equal(key, key + dim_, cell.data()))
        throw std::logic_error("CentreGrid: centre outside its cell");
      prev = id;
      ++listed;
      if (id == last_[c]) break;
    }
  }
  if (listed != mcs.size())
    throw std::logic_error("CentreGrid: entry count != num_mcs");
}

// ---------------------------------------------------------------------------
// MuRTree

MuRTree::MuRTree(const Dataset& ds, double eps, Config cfg, ThreadPool* pool)
    : ds_(&ds), eps_(eps), cfg_(cfg), level1_(ds.dim(), cfg.level1) {
  if (!(eps > 0.0)) throw std::invalid_argument("MuRTree: eps must be > 0");
  if (CentreGrid::admissible(ds, eps))
    grid_ = std::make_unique<CentreGrid>(ds, eps);
  const std::size_t n = ds.size();
  RunGuard* guard = cfg_.guard;

  // Up-front charge for the per-point map and a conservative floor for the
  // member lists (every point appears in exactly one MC): a budget too small
  // for even the skeleton fails here, before the expensive sweep starts.
  if (guard)
    mem_charge_.acquire_throw(guard,
                              n * (sizeof(McId) + sizeof(PointId)),
                              "murtree skeleton");
  point_mc_.assign(n, kInvalidMc);

  // Pass 1 (Algorithm 3, BUILD-MICRO-CLUSTERS): assign within eps, defer
  // within 2*eps, otherwise found a new MC.
  obs::Span assign_span(cfg_.tracer, "build.assign");
  std::vector<PointId> unassigned;
  for (std::size_t i = 0; i < n; ++i) {
    if (guard && i % kBuildCheckStride == 0)
      guard->check_throw("murtree build pass 1");
    const PointId p = static_cast<PointId>(i);
    bool within_2eps = false;
    const McId hit =
        join_probe(ds.point(p), cfg_.two_eps_rule ? &within_2eps : nullptr);
    if (hit != kInvalidMc) {
      mcs_[hit].members.push_back(p);
      point_mc_[p] = hit;
      continue;
    }
    if (within_2eps) {
      unassigned.push_back(p);
      continue;
    }
    create_mc(p);
  }
  deferred_ = unassigned.size();

  // Pass 2 (PROCESS-UNASSIGNED-POINT): join within eps or found a new MC.
  for (std::size_t i = 0; i < unassigned.size(); ++i) {
    if (guard && i % kBuildCheckStride == 0)
      guard->check_throw("murtree build pass 2");
    const PointId p = unassigned[i];
    const McId hit = join_probe(ds.point(p), nullptr);
    if (hit != kInvalidMc) {
      mcs_[hit].members.push_back(p);
      point_mc_[p] = hit;
    } else {
      create_mc(p);
    }
  }

  assign_span.end();

  // AuxR-trees: one small R-tree per MC over its members (STR-packed by
  // default; the members are all known at this point). Each MC's tree is
  // independent, so the builds run in parallel when a pool is supplied; the
  // result is identical for any thread count. With a guard, every 32-MC
  // chunk is a cooperative checkpoint (see parallel_for_chunked).
  obs::Span aux_span(cfg_.tracer, "build.aux_trees");
  aux_.reserve(mcs_.size());
  for (std::size_t z = 0; z < mcs_.size(); ++z)
    aux_.emplace_back(ds.dim(), cfg_.aux);
  parallel_for_chunked(
      pool, mcs_.size(), 32,
      [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t z = begin; z < end; ++z) {
          const MicroCluster& mc = mcs_[z];
          if (cfg_.bulk_aux) {
            std::vector<std::pair<const double*, PointId>> items;
            items.reserve(mc.members.size());
            for (PointId q : mc.members) items.emplace_back(ds_->ptr(q), q);
            aux_[z] =
                RTree::bulk_load_str(ds_->dim(), std::move(items), cfg_.aux);
          } else {
            for (PointId q : mc.members) aux_[z].insert(ds_->ptr(q), q);
          }
        }
      },
      guard);

  // True up the budget charge to the real footprint now that the trees
  // exist. The index is the run's dominant allocation after the dataset
  // itself, so this is where an undersized budget is meant to trip.
  if (guard) {
    std::size_t bytes = n * sizeof(McId) + level1_.memory_bytes() +
                        (grid_ ? grid_->memory_bytes() : 0);
    for (const MicroCluster& mc : mcs_)
      bytes += vector_bytes(mc.members) + vector_bytes(mc.reach) +
               sizeof(MicroCluster);
    for (const RTree& t : aux_) bytes += t.memory_bytes();
    mem_charge_.acquire_throw(guard, bytes, "murtree index");
  }
}

MuRTree::~MuRTree() = default;

McId MuRTree::create_mc(PointId center) {
  const McId id = static_cast<McId>(mcs_.size());
  MicroCluster mc;
  mc.center = center;
  mc.members.push_back(center);
  mcs_.push_back(std::move(mc));
  point_mc_[center] = id;
  // The level-1 entry id is the MC id (the grid numbers entries the same
  // way); both copy the coordinates.
  if (grid_)
    grid_->insert(center);
  else
    level1_.insert(ds_->ptr(center), id);
  return id;
}

McId MuRTree::join_probe(std::span<const double> pt, bool* within_2eps) const {
  if (!grid_) {
    const McId hit = static_cast<McId>(level1_.first_within(pt, eps_));
    if (hit == kInvalidMc && within_2eps != nullptr)
      *within_2eps = level1_.first_within(pt, 2.0 * eps_) != kInvalidPoint;
    return hit;
  }
  // One pass over the 3^d block answers both questions: stop at the first
  // centre strictly within eps (the join rule), noting on the way whether
  // any centre is strictly within 2*eps. Same radii, squares and strictness
  // as RTree::first_within.
  const double eps2 = eps_ * eps_;
  const double two_eps = 2.0 * eps_;
  const double two_eps2 = two_eps * two_eps;
  McId hit = kInvalidMc;
  bool near = false;
  grid_->visit(pt, two_eps, [&](McId id, double d2) {
    if (d2 < eps2) {
      hit = id;
      return false;
    }
    near = near || d2 < two_eps2;
    return true;
  });
  if (hit == kInvalidMc && within_2eps != nullptr) *within_2eps = near;
  return hit;
}

void MuRTree::compute_inner_circles(ThreadPool* pool) {
  obs::Span span(cfg_.tracer, "build.inner_circles");
  const double half2 = (eps_ / 2.0) * (eps_ / 2.0);
  // Each iteration reads shared immutable coordinates and writes only its own
  // MC's ic_count — embarrassingly parallel, identical for any thread count.
  parallel_for_chunked(
      pool, mcs_.size(), 64,
      [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t z = begin; z < end; ++z) {
          MicroCluster& mc = mcs_[z];
          const double* c = ds_->ptr(mc.center);
          std::uint32_t cnt = 0;
          for (PointId q : mc.members) {
            if (q == mc.center) continue;
            if (sq_dist(c, ds_->ptr(q), ds_->dim()) < half2) ++cnt;
          }
          mc.ic_count = cnt;
        }
      },
      cfg_.guard);
}

void MuRTree::compute_reachable(ThreadPool* pool) {
  obs::Span span(cfg_.tracer, "build.reachable");
  // Lemma 3: a query from any member of MC(p) can only reach members of MCs
  // whose centre is within 3*eps of p (<=, not <: the lemma's bound is
  // attained when the query point sits on the MC boundary). The level-1
  // index is read-only here, so the per-MC ball queries run in parallel.
  const double reach_r = 3.0 * eps_;
  parallel_for_chunked(
      pool, mcs_.size(), 64,
      [&](std::size_t begin, std::size_t end, unsigned) {
        std::vector<PointId> hits;
        const double reach_r2 = reach_r * reach_r;
        for (std::size_t z = begin; z < end; ++z) {
          hits.clear();
          const auto c = ds_->point(mcs_[z].center);
          if (grid_)
            grid_->visit(c, reach_r, [&](McId id, double d2) {
              if (d2 <= reach_r2) hits.push_back(id);
              return true;
            });
          else
            level1_.query_ball(c, reach_r, hits, /*strict=*/false);
          mcs_[z].reach.assign(hits.begin(), hits.end());
        }
      },
      cfg_.guard);

  // The reach lists are quadratic in the worst case (every MC reaches every
  // MC when eps spans the domain) — charge them now that their size is known.
  if (cfg_.guard) {
    std::size_t reach_bytes = 0;
    for (const MicroCluster& mc : mcs_) reach_bytes += vector_bytes(mc.reach);
    mem_charge_.acquire_throw(cfg_.guard, mem_charge_.bytes() + reach_bytes,
                              "murtree reach lists");
  }
}

void MuRTree::query_neighborhood(
    PointId p, double radius,
    const std::function<void(PointId, double)>& fn) const {
  const McId z = point_mc_[p];
  const auto pt = ds_->point(p);
  for (McId r : mcs_[z].reach) {
    // Filtration (Section IV-B2): skip reachable MCs whose AuxR-tree MBR
    // does not intersect the query ball.
    if (!aux_[r].root_mbr().overlaps_ball(pt, radius)) continue;
    aux_searched_.fetch_add(1, std::memory_order_relaxed);
    aux_[r].visit_ball(
        pt, radius,
        [&fn](PointId id, double d2) {
          fn(id, d2);
          return true;
        },
        /*strict=*/true);
  }
}

void MuRTree::query_neighborhood(
    PointId p, double radius,
    std::vector<std::pair<PointId, double>>& out) const {
  query_neighborhood(p, radius,
                     [&out](PointId id, double d2) { out.emplace_back(id, d2); });
}

void MuRTree::query_neighborhood(
    std::span<const double> q, double radius,
    const std::function<void(PointId, double)>& fn) const {
  if (q.size() != ds_->dim())
    throw std::invalid_argument("MuRTree::query_neighborhood: wrong dimension");
  // Candidate MCs: centres within radius + eps (<=, so a member exactly at
  // `radius` whose centre sits at the bound is never missed).
  const double cand_r = mc_candidate_radius(radius, eps_);
  std::vector<PointId> centers;
  if (grid_) {
    const double cand_r2 = cand_r * cand_r;
    grid_->visit(q, cand_r, [&](McId id, double d2) {
      if (d2 <= cand_r2) centers.push_back(id);
      return true;
    });
  } else {
    level1_.query_ball(q, cand_r, centers, /*strict=*/false);
  }
  for (PointId r : centers) {
    if (!aux_[r].root_mbr().overlaps_ball(q, radius)) continue;
    aux_searched_.fetch_add(1, std::memory_order_relaxed);
    aux_[r].visit_ball(
        q, radius,
        [&fn](PointId id, double d2) {
          fn(id, d2);
          return true;
        },
        /*strict=*/true);
  }
}

void MuRTree::query_neighborhood(
    std::span<const double> q, double radius,
    std::vector<std::pair<PointId, double>>& out) const {
  query_neighborhood(q, radius,
                     [&out](PointId id, double d2) { out.emplace_back(id, d2); });
}

MuRTree::IndexCounters MuRTree::index_counters() const {
  IndexCounters c;
  c.node_visits = level1_.node_visits();
  c.distance_evals = level1_.distance_evals();
  c.kernel_blocks = level1_.kernel_blocks();
  c.kernel_tail_points = level1_.kernel_tail_points();
  if (grid_) {
    c.node_visits += grid_->cells_probed();
    c.distance_evals += grid_->distance_evals();
  }
  for (const RTree& t : aux_) {
    c.node_visits += t.node_visits();
    c.distance_evals += t.distance_evals();
    c.kernel_blocks += t.kernel_blocks();
    c.kernel_tail_points += t.kernel_tail_points();
  }
  return c;
}

void MuRTree::check_invariants() const {
  const std::size_t n = ds_->size();
  const double eps2 = eps_ * eps_;
  std::vector<std::uint8_t> seen(n, 0);
  for (McId z = 0; z < mcs_.size(); ++z) {
    const MicroCluster& mc = mcs_[z];
    if (mc.members.empty() || mc.members.front() == kInvalidPoint)
      throw std::logic_error("MuRTree: malformed MC");
    const double* c = ds_->ptr(mc.center);
    bool center_listed = false;
    for (PointId q : mc.members) {
      if (seen[q]) throw std::logic_error("MuRTree: point in two MCs");
      seen[q] = 1;
      if (point_mc_[q] != z)
        throw std::logic_error("MuRTree: point_mc mismatch");
      if (q == mc.center) {
        center_listed = true;
        continue;
      }
      if (sq_dist(c, ds_->ptr(q), ds_->dim()) >= eps2)
        throw std::logic_error("MuRTree: member farther than eps from centre");
    }
    if (!center_listed)
      throw std::logic_error("MuRTree: centre not among members");
    aux_[z].check_invariants();
    if (aux_[z].size() != mc.members.size())
      throw std::logic_error("MuRTree: aux tree size mismatch");
  }
  for (std::size_t i = 0; i < n; ++i)
    if (!seen[i]) throw std::logic_error("MuRTree: unassigned point");
  if (grid_)
    grid_->check_invariants(*ds_, mcs_);
  else
    level1_.check_invariants();
}

}  // namespace udb
