#include "core/cost_model.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "graph/graph.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {

/// Dirty sets covering at least 1/kDirtyRebuildDivisor of the flows are
/// cheaper to serve with a full parallel rebuild than with per-flow
/// subtract/add patches.
constexpr std::size_t kDirtyRebuildDivisor = 4;

/// One past the largest accepted group id. Ids may be sparse (storage is
/// per distinct id), but the *domain* stays bounded so a corrupt id can't
/// silently size a scale vector into the gigabytes.
constexpr int kMaxGroupId = 1 << 20;

/// Switch-block width of the attraction kernel. Each block's egress pass
/// reads a transposed column block of |V| · kSwitchBlock doubles per
/// worker, so the block stays narrow (~0.7 MB at k=16, ~4.8 MB at k=32);
/// blocks double as the OpenMP work unit.
constexpr std::ptrdiff_t kSwitchBlock = 64;

/// Accumulates one flow's ingress contribution over a switch block into
/// a dense accumulator (acc[j] belongs to sw[j]). The dense store plus
/// __restrict is what lets the compiler vectorize the gather; the
/// scatter back into the attraction vector happens once per block, not
/// per flow. tools/vec_gate.sh pins that this loop vectorizes.
void accumulate_ingress_block(double* __restrict acc,
                              const double* __restrict srow,
                              const NodeId* __restrict sw, std::size_t n,
                              double rate) {
  for (std::size_t j = 0; j < n; ++j) {  // ppdc-vec: ingress-block-gather
    acc[j] += rate * srow[static_cast<std::size_t>(sw[j])];
  }
}

/// Accumulates one flow's egress contribution over a switch block from
/// the transposed column block's row at the flow's destination
/// (tcol[j] = c(sw[j], dst)): a contiguous read, so it vectorizes too.
/// tools/vec_gate.sh pins that this loop vectorizes.
void accumulate_egress_block(double* __restrict acc,
                             const double* __restrict tcol, std::size_t n,
                             double rate) {
  for (std::size_t j = 0; j < n; ++j) {  // ppdc-vec: egress-column-block
    acc[j] += rate * tcol[j];
  }
}

/// One flow's term of the attraction sums: weight, endpoints, output row.
struct AttractionTerm {
  double weight;
  NodeId src;
  NodeId dst;
  std::size_t row;
};

/// The attraction kernel behind refresh() (one output row) and
/// rebuild_group_bases() (one row per mapped group). For every switch sw
/// and row r it stores
///   ing[r·|V| + sw] = Σ_i w_i · c(src_i, sw)
///   egr[r·|V| + sw] = Σ_i w_i · c(sw, dst_i)
/// over the flows i = 0 .. num_flows-1 with term_of(i).row == r, leaving
/// non-switch cells untouched. Per switch block it keeps dense per-row
/// accumulators; ingress gathers the source's APSP row, egress reads a
/// transposed column block tcol[v·bw + j] = c(sw_j, v) at the flow's
/// destination. Columns are transposed rather than read as c(dst, sw)
/// because weighted and degraded fabrics need not be symmetric bit for
/// bit. Every cell still adds its products in flow order starting from
/// 0.0, so the result is bit-identical to a scalar per-switch flow scan
/// at any thread count. Zero-weight flows are skipped: they contribute
/// nothing, and on degraded fabrics a quarantined flow's endpoint
/// distance may be +inf (0 · inf = NaN).
template <class TermOf>
void attraction_kernel(const AllPairs& apsp, std::size_t num_flows,
                       std::size_t num_rows, const TermOf& term_of,
                       double* ing, double* egr) {
  const auto n = static_cast<std::size_t>(apsp.num_nodes());
  const auto& switches = apsp.graph().switches();
  const auto num_switches = static_cast<std::ptrdiff_t>(switches.size());
  const std::ptrdiff_t num_blocks =
      (num_switches + kSwitchBlock - 1) / kSwitchBlock;
  constexpr auto bw = static_cast<std::size_t>(kSwitchBlock);
#if defined(PPDC_HAVE_OPENMP)
#pragma omp parallel
#endif
  {
    // Per-worker buffers, sized by the first block a worker takes, so
    // idle workers of a small fabric allocate nothing.
    std::vector<double> tcol, iacc, eacc;
#if defined(PPDC_HAVE_OPENMP)
#pragma omp for schedule(static)
#endif
    for (std::ptrdiff_t blk = 0; blk < num_blocks; ++blk) {
      const std::ptrdiff_t b0 = blk * kSwitchBlock;
      const auto bn = static_cast<std::size_t>(
          std::min(num_switches, b0 + kSwitchBlock) - b0);
      const NodeId* swp = switches.data() + b0;
      tcol.resize(n * bw);
      iacc.assign(num_rows * bw, 0.0);
      eacc.assign(num_rows * bw, 0.0);
      // Transpose v-outer: the block's rows are read as bn sequential
      // streams and tcol is written contiguously.
      const double* swrows[kSwitchBlock] = {};
      for (std::size_t j = 0; j < bn; ++j) swrows[j] = apsp.cost_row(swp[j]);
      for (std::size_t v = 0; v < n; ++v) {
        double* trow = tcol.data() + v * bw;
        for (std::size_t j = 0; j < bn; ++j) trow[j] = swrows[j][v];
      }
      for (std::size_t i = 0; i < num_flows; ++i) {
        const AttractionTerm t = term_of(i);
        if (t.weight == 0.0) continue;
        accumulate_ingress_block(iacc.data() + t.row * bw,
                                 apsp.cost_row(t.src), swp, bn, t.weight);
        accumulate_egress_block(eacc.data() + t.row * bw,
                                tcol.data() +
                                    static_cast<std::size_t>(t.dst) * bw,
                                bn, t.weight);
      }
      for (std::size_t r = 0; r < num_rows; ++r) {
        for (std::size_t j = 0; j < bn; ++j) {
          const std::size_t cell = r * n + static_cast<std::size_t>(swp[j]);
          ing[cell] = iacc[r * bw + j];
          egr[cell] = eacc[r * bw + j];
        }
      }
    }
  }
}

}  // namespace

void validate_placement(const Graph& g, const Placement& p) {
  PPDC_REQUIRE(!p.empty(), "placement is empty");
  std::unordered_set<NodeId> seen;
  for (const NodeId s : p) {
    PPDC_REQUIRE(s >= 0 && s < g.num_nodes(), "placement node out of range");
    PPDC_REQUIRE(g.is_switch(s), "VNFs may only be placed on switches");
    PPDC_REQUIRE(seen.insert(s).second,
                 "VNFs of one SFC must sit on distinct switches");
  }
}

CostModel::CostModel(const AllPairs& apsp, const std::vector<VmFlow>& flows)
    : apsp_(&apsp), flows_(&flows) {
  refresh();
}

CostModel::CostModel(const AllPairs& apsp, const std::vector<VmFlow>& flows,
                     const std::vector<double>& base_rates,
                     const std::vector<int>& groups, int min_groups)
    : apsp_(&apsp), flows_(&flows) {
  const auto n = static_cast<std::size_t>(apsp.num_nodes());
  ingress_.assign(n, 0.0);
  egress_.assign(n, 0.0);
  enable_group_refresh(base_rates, groups, min_groups);
  recombine(std::vector<double>(static_cast<std::size_t>(num_groups_), 1.0));
}

void CostModel::refresh() {
  const auto n = static_cast<std::size_t>(apsp_->num_nodes());
  ingress_.assign(n, 0.0);
  egress_.assign(n, 0.0);
  lambda_sum_ = 0.0;
  for (const auto& f : *flows_) {
    PPDC_REQUIRE(f.rate >= 0.0, "negative traffic rate");
    lambda_sum_ += f.rate;
  }
  attraction_kernel(
      *apsp_, flows_->size(), 1,
      [&](std::size_t i) {
        const VmFlow& f = (*flows_)[i];
        return AttractionTerm{f.rate, f.src_host, f.dst_host, 0};
      },
      ingress_.data(), egress_.data());
  rescan_minima();
  if (group_refresh_enabled()) {
    // Keep the base vectors coherent with any endpoint changes the caller
    // applied without an endpoints_moved() signal. A full refresh may also
    // carry rates that no longer decompose as base · scale, so the next
    // endpoints_moved() must not recombine against stale scales.
    PPDC_REQUIRE(flows_->size() == groups_.size(),
                 "flow vector resized after enable_group_refresh");
    for (const FlowId i : id_range<FlowId>(flows_->size())) {
      patch_moved_flow(i);
    }
    last_scales_.clear();
  }
}

void CostModel::rescan_minima() {
  min_ingress_ = std::numeric_limits<double>::infinity();
  min_egress_ = std::numeric_limits<double>::infinity();
  for (const NodeId sw : placement_candidates()) {
    const double a = ingress_[static_cast<std::size_t>(sw)];
    const double b = egress_[static_cast<std::size_t>(sw)];
    if (a < min_ingress_) {
      min_ingress_ = a;
      best_ingress_ = sw;
    }
    if (b < min_egress_) {
      min_egress_ = b;
      best_egress_ = sw;
    }
  }
}

void CostModel::restrict_candidates(std::vector<NodeId> candidates) {
  PPDC_REQUIRE(!candidates.empty(),
               "placement-candidate restriction must not be empty");
  std::unordered_set<NodeId> seen;
  for (const NodeId s : candidates) {
    PPDC_REQUIRE(s >= 0 && s < apsp_->num_nodes(),
                 "placement candidate out of range");
    PPDC_REQUIRE(apsp_->graph().is_switch(s),
                 "placement candidates must be switches");
    PPDC_REQUIRE(seen.insert(s).second, "duplicate placement candidate");
  }
  candidates_ = std::move(candidates);
  rescan_minima();
}

void CostModel::enable_group_refresh(const std::vector<double>& base_rates,
                                     const std::vector<int>& groups,
                                     int min_groups) {
  PPDC_REQUIRE(base_rates.size() == flows_->size(),
               "base-rate vector size mismatch");
  PPDC_REQUIRE(groups.size() == flows_->size(), "group vector size mismatch");
  PPDC_REQUIRE(min_groups >= 0 && min_groups <= kMaxGroupId,
               "group-domain size outside [0, 2^20]");
  int max_group = min_groups - 1;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    // Per-flow validation names the offending FlowId: a departed flow
    // whose slot carries a stale/garbage group id must fail loudly here
    // rather than silently corrupt a base-vector row.
    PPDC_REQUIRE(groups[i] >= 0, "flow " + std::to_string(i) +
                                     " carries negative group id " +
                                     std::to_string(groups[i]));
    PPDC_REQUIRE(groups[i] < kMaxGroupId,
                 "flow " + std::to_string(i) + " carries group id " +
                     std::to_string(groups[i]) +
                     " outside the supported domain [0, 2^20)");
    PPDC_REQUIRE(base_rates[i] >= 0.0,
                 "flow " + std::to_string(i) + " carries negative base rate " +
                     std::to_string(base_rates[i]));
    max_group = std::max(max_group, groups[i]);
  }
  base_rates_ = base_rates;
  groups_ = groups;
  num_groups_ = std::max(max_group + 1, 1);
  last_scales_.clear();
  rebuild_group_bases();
}

void CostModel::rebuild_group_bases() {
  const auto n = static_cast<std::size_t>(apsp_->num_nodes());
  // Row compaction: one dense base-vector row per *distinct* group id, in
  // ascending id order — a dense id set keeps the historical row == id
  // layout (and recombination order) bit for bit, while a sparse set
  // (streaming shards re-using freed slots) allocates no dead rows.
  std::vector<char> used(static_cast<std::size_t>(num_groups_), 0);
  for (const int g : groups_) used[static_cast<std::size_t>(g)] = 1;
  group_rows_.assign(static_cast<std::size_t>(num_groups_), -1);
  row_groups_.clear();
  for (int g = 0; g < num_groups_; ++g) {
    if (used[static_cast<std::size_t>(g)] != 0) {
      group_rows_[static_cast<std::size_t>(g)] =
          static_cast<int>(row_groups_.size());
      row_groups_.push_back(g);
    }
  }
  snap_src_.resize(flows_->size());
  snap_dst_.resize(flows_->size());
  for (std::size_t i = 0; i < flows_->size(); ++i) {
    snap_src_[i] = (*flows_)[i].src_host;
    snap_dst_[i] = (*flows_)[i].dst_host;
  }
  group_ingress_.assign(row_groups_.size() * n, 0.0);
  group_egress_.assign(row_groups_.size() * n, 0.0);
  attraction_kernel(
      *apsp_, groups_.size(), row_groups_.size(),
      [&](std::size_t i) {
        return AttractionTerm{base_rates_[i], snap_src_[i], snap_dst_[i],
                              row_of(groups_[i])};
      },
      group_ingress_.data(), group_egress_.data());
}

void CostModel::patch_moved_flow(FlowId flow) {
  const auto n = static_cast<std::size_t>(apsp_->num_nodes());
  const auto i = static_cast<std::size_t>(flow.value());
  const std::size_t row = row_of(groups_[i]) * n;
  const double base = base_rates_[i];
  const VmFlow& f = (*flows_)[i];
  if (base == 0.0) {
    // No base-vector contribution to move; just track the endpoints.
    snap_src_[i] = f.src_host;
    snap_dst_[i] = f.dst_host;
    return;
  }
  if (f.src_host != snap_src_[i]) {
    const double* nrow = apsp_->cost_row(f.src_host);
    const double* orow = apsp_->cost_row(snap_src_[i]);
    for (const NodeId sw : apsp_->graph().switches()) {
      const auto col = static_cast<std::size_t>(sw);
      group_ingress_[row + col] += base * (nrow[col] - orow[col]);
    }
    snap_src_[i] = f.src_host;
  }
  if (f.dst_host != snap_dst_[i]) {
    const auto ncol = static_cast<std::size_t>(f.dst_host);
    const auto ocol = static_cast<std::size_t>(snap_dst_[i]);
    for (const NodeId sw : apsp_->graph().switches()) {
      const double* swrow = apsp_->cost_row(sw);
      group_egress_[row + static_cast<std::size_t>(sw)] +=
          base * (swrow[ncol] - swrow[ocol]);
    }
    snap_dst_[i] = f.dst_host;
  }
}

void CostModel::recombine(const std::vector<double>& scales) {
  const auto n = static_cast<std::size_t>(apsp_->num_nodes());
  // Λ is summed per flow in flow order — bit-identical to what refresh()
  // computes from rates set via diurnal_rates_grouped. Λ seeds the stroll
  // DP (solve_top_dp), where a last-ulp difference can flip tie-breaks
  // between equal-hop interior paths and cascade into a different
  // placement; the O(l) add pass is noise next to the O(l·|V_s|) rescan
  // this path replaces.
  lambda_sum_ = 0.0;
  for (std::size_t i = 0; i < base_rates_.size(); ++i) {
    lambda_sum_ += base_rates_[i] * scales[static_cast<std::size_t>(groups_[i])];
  }
  ingress_.assign(n, 0.0);
  egress_.assign(n, 0.0);
  // Group-major recombination over the *mapped* rows: each pass streams
  // one base-vector row contiguously. Per switch the scaled terms still
  // add in ascending-group order (unused ids would only have added +0.0),
  // so the result is bit-identical to a switch-outer group-inner scan
  // over the full id domain.
  const auto& switches = apsp_->graph().switches();
  for (std::size_t r = 0; r < row_groups_.size(); ++r) {
    const double scale = scales[static_cast<std::size_t>(row_groups_[r])];
    const double* girow = group_ingress_.data() + r * n;
    const double* gerow = group_egress_.data() + r * n;
    for (const NodeId sw : switches) {
      const auto col = static_cast<std::size_t>(sw);
      ingress_[col] += scale * girow[col];
      egress_[col] += scale * gerow[col];
    }
  }
  rescan_minima();
}

std::size_t CostModel::ensure_group_row(int group) {
  if (group >= num_groups_) {
    group_rows_.resize(static_cast<std::size_t>(group) + 1, -1);
    num_groups_ = group + 1;
  }
  int& row = group_rows_[static_cast<std::size_t>(group)];
  if (row < 0) {
    const auto n = static_cast<std::size_t>(apsp_->num_nodes());
    row = static_cast<int>(row_groups_.size());
    row_groups_.push_back(group);
    group_ingress_.resize(row_groups_.size() * n, 0.0);
    group_egress_.resize(row_groups_.size() * n, 0.0);
  }
  return static_cast<std::size_t>(row);
}

void CostModel::accumulate_flow_base(std::size_t row, double base, NodeId src,
                                     NodeId dst, double sign) {
  const auto n = static_cast<std::size_t>(apsp_->num_nodes());
  const double* srow = apsp_->cost_row(src);
  double* gi = group_ingress_.data() + row * n;
  double* ge = group_egress_.data() + row * n;
  const double signed_base = sign * base;
  const auto dcol = static_cast<std::size_t>(dst);
  for (const NodeId sw : apsp_->graph().switches()) {
    const auto col = static_cast<std::size_t>(sw);
    gi[col] += signed_base * srow[col];
    ge[col] += signed_base * apsp_->cost_row(sw)[dcol];
  }
}

void CostModel::rebase_flow(FlowId flow, double new_base, int new_group) {
  PPDC_REQUIRE(group_refresh_enabled(),
               "rebase_flow needs enable_group_refresh first");
  const FlowId end = flow_count(*flows_);
  PPDC_REQUIRE(flow.valid() && flow < end,
               "rebased flow " + std::to_string(flow.value()) +
                   " out of range [0, " + std::to_string(end.value()) + ")");
  PPDC_REQUIRE(new_base >= 0.0,
               "flow " + std::to_string(flow.value()) +
                   " rebased to negative base rate " +
                   std::to_string(new_base));
  PPDC_REQUIRE(new_group >= 0 && new_group < kMaxGroupId,
               "flow " + std::to_string(flow.value()) +
                   " rebased to group id " + std::to_string(new_group) +
                   " outside the supported domain [0, 2^20)");
  const auto i = static_cast<std::size_t>(flow.value());
  if (base_rates_[i] != 0.0) {
    accumulate_flow_base(row_of(groups_[i]), base_rates_[i], snap_src_[i],
                         snap_dst_[i], -1.0);
  }
  const VmFlow& f = (*flows_)[i];
  base_rates_[i] = new_base;
  groups_[i] = new_group;
  snap_src_[i] = f.src_host;
  snap_dst_[i] = f.dst_host;
  if (new_base != 0.0) {
    accumulate_flow_base(ensure_group_row(new_group), new_base, f.src_host,
                         f.dst_host, 1.0);
  }
}

void CostModel::flows_appended(const std::vector<double>& new_bases,
                               const std::vector<int>& new_groups) {
  PPDC_REQUIRE(group_refresh_enabled(),
               "flows_appended needs enable_group_refresh first");
  PPDC_REQUIRE(new_bases.size() == new_groups.size(),
               "appended base/group vector size mismatch");
  PPDC_REQUIRE(groups_.size() + new_bases.size() == flows_->size(),
               "flows_appended must describe exactly the appended tail: "
               "model tracks " +
                   std::to_string(groups_.size()) + " flows, " +
                   std::to_string(new_bases.size()) +
                   " were announced, but the bound vector holds " +
                   std::to_string(flows_->size()));
  for (std::size_t j = 0; j < new_bases.size(); ++j) {
    const std::size_t i = groups_.size();
    PPDC_REQUIRE(new_groups[j] >= 0 && new_groups[j] < kMaxGroupId,
                 "flow " + std::to_string(i) + " appended with group id " +
                     std::to_string(new_groups[j]) +
                     " outside the supported domain [0, 2^20)");
    PPDC_REQUIRE(new_bases[j] >= 0.0,
                 "flow " + std::to_string(i) +
                     " appended with negative base rate " +
                     std::to_string(new_bases[j]));
    const VmFlow& f = (*flows_)[i];
    base_rates_.push_back(new_bases[j]);
    groups_.push_back(new_groups[j]);
    snap_src_.push_back(f.src_host);
    snap_dst_.push_back(f.dst_host);
    if (new_bases[j] != 0.0) {
      accumulate_flow_base(ensure_group_row(new_groups[j]), new_bases[j],
                           f.src_host, f.dst_host, 1.0);
    }
  }
}

void CostModel::refresh_scaled(const std::vector<double>& scales) {
  PPDC_REQUIRE(group_refresh_enabled(),
               "refresh_scaled needs enable_group_refresh first");
  PPDC_REQUIRE(scales.size() == static_cast<std::size_t>(num_groups_),
               "scale vector size mismatch");
  for (const double s : scales) {
    PPDC_REQUIRE(s >= 0.0, "negative group scale");
  }
  recombine(scales);
  last_scales_ = scales;
}

void CostModel::endpoints_moved(const std::vector<FlowId>& flow_ids) {
  if (!group_refresh_enabled() || last_scales_.empty()) {
    refresh();
    return;
  }
  const FlowId end = flow_count(*flows_);
  for (const FlowId i : flow_ids) {
    PPDC_REQUIRE(i.valid() && i < end,
                 "moved flow " + std::to_string(i.value()) +
                     " out of range [0, " + std::to_string(end.value()) + ")");
  }
  if (flow_ids.size() * kDirtyRebuildDivisor >= flows_->size()) {
    rebuild_group_bases();
  } else {
    for (const FlowId i : flow_ids) {
      patch_moved_flow(i);
    }
  }
  recombine(last_scales_);
}

CostModel::GroupSnapshot CostModel::group_snapshot() const {
  GroupSnapshot snap;
  snap.num_groups = num_groups_;
  snap.base_rates = base_rates_;
  snap.groups = groups_;
  snap.group_rows = group_rows_;
  snap.row_groups = row_groups_;
  snap.group_ingress = group_ingress_;
  snap.group_egress = group_egress_;
  snap.last_scales = last_scales_;
  snap.snap_src = snap_src_;
  snap.snap_dst = snap_dst_;
  return snap;
}

CostModel::CostModel(const AllPairs& apsp, const std::vector<VmFlow>& flows,
                     const GroupSnapshot& snap)
    : apsp_(&apsp), flows_(&flows) {
  PPDC_REQUIRE(snap.num_groups > 0, "group snapshot has no groups");
  PPDC_REQUIRE(snap.base_rates.size() == flows.size() &&
                   snap.groups.size() == flows.size() &&
                   snap.snap_src.size() == flows.size() &&
                   snap.snap_dst.size() == flows.size(),
               "group snapshot sized for " +
                   std::to_string(snap.base_rates.size()) + " flows, model "
                   "bound to " + std::to_string(flows.size()));
  const auto v = static_cast<std::size_t>(apsp.num_nodes());
  PPDC_REQUIRE(snap.group_ingress.size() == snap.row_groups.size() * v &&
                   snap.group_egress.size() == snap.row_groups.size() * v,
               "group snapshot base vectors do not match the topology");
  PPDC_REQUIRE(snap.last_scales.empty() ||
                   snap.last_scales.size() ==
                       static_cast<std::size_t>(snap.num_groups),
               "group snapshot scale vector size mismatch");
  ingress_.assign(v, 0.0);
  egress_.assign(v, 0.0);
  num_groups_ = snap.num_groups;
  base_rates_ = snap.base_rates;
  groups_ = snap.groups;
  group_rows_ = snap.group_rows;
  row_groups_ = snap.row_groups;
  group_ingress_ = snap.group_ingress;
  group_egress_ = snap.group_egress;
  last_scales_ = snap.last_scales;
  snap_src_ = snap.snap_src;
  snap_dst_ = snap.snap_dst;
}

double CostModel::ingress_attraction(NodeId a) const {
  PPDC_REQUIRE(apsp_->graph().is_switch(a), "ingress must be a switch");
  return ingress_[static_cast<std::size_t>(a)];
}

double CostModel::egress_attraction(NodeId b) const {
  PPDC_REQUIRE(apsp_->graph().is_switch(b), "egress must be a switch");
  return egress_[static_cast<std::size_t>(b)];
}

double CostModel::chain_cost(const Placement& p) const {
  double c = 0.0;
  for (std::size_t j = 0; j + 1 < p.size(); ++j) {
    c += apsp_->cost(p[j], p[j + 1]);
  }
  return c;
}

double CostModel::communication_cost(const Placement& p) const {
  validate_placement(apsp_->graph(), p);
  return lambda_sum_ * chain_cost(p) + ingress_attraction(p.front()) +
         egress_attraction(p.back());
}

double CostModel::migration_cost(const Placement& from, const Placement& to,
                                 double mu) const {
  PPDC_REQUIRE(from.size() == to.size(),
               "migration must preserve the SFC length");
  PPDC_REQUIRE(mu >= 0.0, "negative migration coefficient");
  double c = 0.0;
  for (std::size_t j = 0; j < from.size(); ++j) {
    c += apsp_->cost(from[j], to[j]);
  }
  return mu * c;
}

double CostModel::total_cost(const Placement& from, const Placement& to,
                             double mu) const {
  return migration_cost(from, to, mu) + communication_cost(to);
}

double CostModel::flow_cost(const VmFlow& flow, const Placement& p) const {
  validate_placement(apsp_->graph(), p);
  return flow.rate * (apsp_->cost(flow.src_host, p.front()) + chain_cost(p) +
                      apsp_->cost(p.back(), flow.dst_host));
}

}  // namespace ppdc
