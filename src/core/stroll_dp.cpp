#include "core/stroll_dp.hpp"

#include <algorithm>
#include <limits>

#include "graph/graph.hpp"
#include "util/require.hpp"

namespace ppdc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rate-scales one APSP row through the candidate gather into a metric
/// row. __restrict is what lets the compiler emit the vectorized gather
/// here — without it the mrow stores may alias the inputs and the loop
/// stays scalar. tools/vec_gate.sh pins that this loop vectorizes.
void build_metric_row(double* __restrict mrow, const double* __restrict arow,
                      const NodeId* __restrict sw, std::size_t rows,
                      double rate) {
  for (std::size_t k = 0; k < rows; ++k) {  // ppdc-vec: metric-row-gather
    mrow[k] = rate * arow[static_cast<std::size_t>(sw[k])];
  }
}

struct Argmin {
  double value;
  std::size_t index;
};

/// argmin over k < n of m[k] + c[k]: the smallest sum, and the smallest k
/// attaining it — the candidate a left-to-right strict-< scan picks.
/// Four independent (value, first index) lanes break the compare chain of
/// a single running minimum; each lane keeps its first minimum with a
/// strict <, and the lanes combine by value, then index. Every sum is the
/// same single add as in that scan, so the result is bit-identical to it.
/// When every sum is +inf the index is meaningless.
Argmin lane_argmin(const double* __restrict m, const double* __restrict c,
                   std::size_t n) {
  constexpr std::size_t kLanes = 4;
  double best[kLanes] = {kInf, kInf, kInf, kInf};
  std::size_t at[kLanes] = {0, 0, 0, 0};
  const std::size_t body = n - n % kLanes;
  for (std::size_t k = 0; k < body; k += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      const double v = m[k + j] + c[k + j];
      const bool lt = v < best[j];
      best[j] = lt ? v : best[j];
      at[j] = lt ? k + j : at[j];
    }
  }
  for (std::size_t k = body; k < n; ++k) {
    const double v = m[k] + c[k];
    if (v < best[k - body]) {
      best[k - body] = v;
      at[k - body] = k;
    }
  }
  Argmin out{best[0], at[0]};
  for (std::size_t j = 1; j < kLanes; ++j) {
    if (best[j] < out.value || (best[j] == out.value && at[j] < out.index)) {
      out = {best[j], at[j]};
    }
  }
  return out;
}
}  // namespace

StrollMetric::StrollMetric(const AllPairs& apsp, double rate,
                           std::vector<NodeId> universe)
    : apsp_(&apsp), rate_(rate) {
  PPDC_REQUIRE(rate > 0.0, "stroll rate must be positive");
  const Graph& g = apsp.graph();
  if (universe.empty()) {
    switches_ = IndexedVector<CandidateIdx, NodeId>(g.switches());
  } else {
    for (const NodeId u : universe) {
      PPDC_REQUIRE(u >= 0 && u < g.num_nodes() && g.is_switch(u),
                   "stroll universe entries must be switches");
    }
    switches_ = IndexedVector<CandidateIdx, NodeId>(std::move(universe));
  }
  row_of_.assign(static_cast<std::size_t>(g.num_nodes()),
                 CandidateIdx::invalid());
  for (const CandidateIdx i : switches_.ids()) {
    CandidateIdx& slot = row_of_[static_cast<std::size_t>(switches_[i])];
    PPDC_REQUIRE(!slot.valid(), "stroll universe entries must be distinct");
    slot = i;
  }
  const std::size_t n = rows();
  metric_.resize(n * n);
  const NodeId* sw = switches_.raw().data();
  for (std::size_t i = 0; i < n; ++i) {
    build_metric_row(metric_.data() + i * n, apsp.cost_row(sw[i]), sw, n,
                     rate);
  }
}

StrollTable::StrollTable(const AllPairs& apsp, NodeId destination,
                         double rate, std::vector<NodeId> universe)
    : StrollTable(
          std::make_unique<const StrollMetric>(apsp, rate, std::move(universe)),
          destination) {}

StrollTable::StrollTable(std::unique_ptr<const StrollMetric> owned,
                         NodeId destination)
    : StrollTable(*owned, destination) {
  owned_ = std::move(owned);
}

StrollTable::StrollTable(const StrollMetric& metric, NodeId destination)
    : m_(&metric), t_(destination), rows_(metric.rows()) {
  const AllPairs& apsp = metric.apsp();
  PPDC_REQUIRE(destination >= 0 && destination < apsp.graph().num_nodes(),
               "destination out of range");
  metric_to_t_.resize(rows_);
  const NodeId* sw = metric.switches().raw().data();
  for (std::size_t i = 0; i < rows_; ++i) {
    metric_to_t_[i] =
        metric.rate() *
        apsp.cost_row(sw[i])[static_cast<std::size_t>(destination)];
  }
}

void StrollTable::extend(int e_max) {
  if (levels_ >= e_max) return;
  const std::size_t rows = rows_;
  cost_.resize(static_cast<std::size_t>(e_max) * rows, kInf);
  succ_.resize(static_cast<std::size_t>(e_max) * rows, kInvalidNode);
  const NodeId* sw = m_->switches().raw().data();
  const CandidateIdx t_row = m_->row_of(t_);
  // Level scratch: the previous cost row with every excluded candidate
  // of the current row masked to +inf, and the inverse successor buckets
  // as linked lists: head[u] -> next[k] -> ... lists the candidates k
  // whose stored continuation returns to row u.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<double> masked(rows);
  std::vector<std::size_t> head(rows), next(rows);
  while (levels_ < e_max) {
    const int e = levels_ + 1;
    double* ce = cost_.data() + static_cast<std::size_t>(e - 1) * rows;
    NodeId* se = succ_.data() + static_cast<std::size_t>(e - 1) * rows;
    if (e == 1) {
      // Base case (pseudocode line 2): one metric edge straight to t.
      for (std::size_t i = 0; i < rows; ++i) {
        if (sw[i] == t_) continue;  // c(t,t,1) stays +inf
        ce[i] = metric_to_t_[i];
        se[i] = t_;
      }
    } else {
      const double* pc = ce - rows;
      const NodeId* ps = se - rows;
      // Line 6 excludes, for row u, the candidates w == u, w == t and
      // those whose continuation immediately returns to u. The t entry is
      // masked for the whole level; the other two are masked per row and
      // restored after its scan.
      auto base = [&](std::size_t k) {
        return t_row.valid() && k == static_cast<std::size_t>(t_row.value())
                   ? kInf
                   : pc[k];
      };
      for (std::size_t k = 0; k < rows; ++k) masked[k] = base(k);
      std::fill(head.begin(), head.end(), kNone);
      for (std::size_t k = 0; k < rows; ++k) {
        if (ps[k] == kInvalidNode) continue;
        const CandidateIdx u = m_->row_of(ps[k]);
        if (!u.valid()) continue;
        next[k] = head[static_cast<std::size_t>(u.value())];
        head[static_cast<std::size_t>(u.value())] = k;
      }
      for (std::size_t i = 0; i < rows; ++i) {
        masked[i] = kInf;
        for (std::size_t k = head[i]; k != kNone; k = next[k]) {
          masked[k] = kInf;
        }
        const Argmin a = lane_argmin(m_->row(i), masked.data(), rows);
        ce[i] = a.value;
        se[i] = a.value < kInf ? sw[a.index] : kInvalidNode;
        masked[i] = base(i);
        for (std::size_t k = head[i]; k != kNone; k = next[k]) {
          masked[k] = base(k);
        }
      }
    }
    ++levels_;
  }
}

std::pair<double, NodeId> StrollTable::source_row(NodeId s, int e) const {
  PPDC_REQUIRE(e >= 1 && e <= levels_, "edge budget not materialized");
  if (e == 1) {
    if (s == t_) return {kInf, kInvalidNode};
    return {m_->cost(s, t_), t_};
  }
  const double* pc = cost_row(e - 1);
  const NodeId* ps = succ_row(e - 1);
  const double* srow = m_->apsp().cost_row(s);
  const NodeId* sw = m_->switches().raw().data();
  const double rate = m_->rate();
  double best = kInf;
  NodeId best_w = kInvalidNode;
  for (std::size_t k = 0; k < rows_; ++k) {
    const NodeId w = sw[k];
    const bool ok = (w != s) && (w != t_) && (ps[k] != s);
    const double cand =
        ok ? rate * srow[static_cast<std::size_t>(w)] + pc[k] : kInf;
    if (cand < best) {
      best = cand;
      best_w = w;
    }
  }
  return {best, best_w};
}

StrollResult StrollTable::find(NodeId s, int n_distinct) {
  const Graph& g = m_->apsp().graph();
  PPDC_REQUIRE(s >= 0 && s < g.num_nodes(), "source out of range");
  PPDC_REQUIRE(n_distinct >= 0, "negative distinct requirement");
  // Switches available as intermediates (s and t do not count).
  int usable = static_cast<int>(rows_);
  if (g.is_switch(s)) --usable;
  if (g.is_switch(t_) && t_ != s) --usable;
  PPDC_REQUIRE(n_distinct <= usable,
               "not enough switches to host the requested VNFs");

  StrollResult out;
  if (n_distinct == 0) {
    if (s == t_) {
      // Degenerate n-tour base: no edge is needed, and a {s, s} walk would
      // violate the consecutive-nodes-distinct invariant downstream
      // consumers (explain, Theorem-3 suffix checks) rely on.
      out.cost = 0.0;
      out.walk = {s};
      out.edges_used = 0;
      return out;
    }
    out.cost = m_->cost(s, t_);
    out.walk = {s, t_};
    out.edges_used = 1;
    return out;
  }

  const int r_cap = n_distinct + 1 + std::max(16, n_distinct * 2);
  std::vector<NodeId> best_partial;  // longest distinct prefix seen so far
  // Membership bitmap over DP rows: dedups the walk's distinct switches in
  // O(1) per step instead of a linear scan of the growing vector.
  std::vector<char> seen(rows_, 0);

  for (int r = n_distinct + 1; r <= r_cap; ++r) {
    extend(r);
    const auto [total, first_hop] = source_row(s, r);
    if (total == kInf) continue;  // no r-edge stroll exists (tiny graphs)

    // Walk the successor chain (pseudocode lines 11-19).
    std::vector<NodeId> walk{s};
    std::vector<NodeId> distinct;
    NodeId cur = first_hop;
    int budget = r - 1;
    while (true) {
      walk.push_back(cur);
      if (cur != s && cur != t_ && g.is_switch(cur)) {
        const CandidateIdx row = m_->row_of(cur);
        PPDC_REQUIRE(row.valid(), "walk visits a non-universe switch");
        char& mark = seen[static_cast<std::size_t>(row.value())];
        if (!mark) {
          mark = 1;
          distinct.push_back(cur);
        }
      }
      if (budget == 0) break;
      const CandidateIdx row = m_->row_of(cur);
      PPDC_REQUIRE(row.valid(), "walk stepped outside the switch universe");
      cur = succ_row(budget)[static_cast<std::size_t>(row.value())];
      PPDC_REQUIRE(cur != kInvalidNode, "broken successor chain");
      --budget;
    }
    PPDC_REQUIRE(walk.back() == t_, "stroll must end at the destination");

    if (static_cast<int>(distinct.size()) > static_cast<int>(best_partial.size())) {
      best_partial = distinct;
    }
    if (static_cast<int>(distinct.size()) >= n_distinct) {
      out.cost = total;
      out.walk = std::move(walk);
      distinct.resize(static_cast<std::size_t>(n_distinct));
      out.placement = std::move(distinct);
      out.edges_used = r;
      return out;
    }
    // Clear only the bits this round set (distinct is tiny next to rows_).
    for (const NodeId w : distinct) {
      seen[static_cast<std::size_t>(m_->row_of(w).value())] = 0;
    }
  }

  // Cap hit: greedily complete the best partial cover with nearest unused
  // switches so callers always receive a valid placement.
  out.used_fallback = true;
  std::vector<NodeId> seq = best_partial;
  // `seen` is all-clear here; reuse it as the membership bitmap of `seq`.
  for (const NodeId w : seq) {
    seen[static_cast<std::size_t>(m_->row_of(w).value())] = 1;
  }
  const NodeId* sw = m_->switches().raw().data();
  while (static_cast<int>(seq.size()) < n_distinct) {
    const NodeId from = seq.empty() ? s : seq.back();
    const double* frow = m_->apsp().cost_row(from);
    double best_d = kInf;
    NodeId best_sw = kInvalidNode;
    std::size_t best_row = 0;
    for (std::size_t k = 0; k < rows_; ++k) {
      const NodeId w = sw[k];
      if (w == s || w == t_ || seen[k]) continue;
      const double d = frow[static_cast<std::size_t>(w)];
      if (d < best_d) {
        best_d = d;
        best_sw = w;
        best_row = k;
      }
    }
    PPDC_REQUIRE(best_sw != kInvalidNode, "fallback ran out of switches");
    seen[best_row] = 1;
    seq.push_back(best_sw);
  }
  out.walk = {s};
  out.walk.insert(out.walk.end(), seq.begin(), seq.end());
  out.walk.push_back(t_);
  out.cost = 0.0;
  for (std::size_t i = 0; i + 1 < out.walk.size(); ++i) {
    out.cost += m_->cost(out.walk[i], out.walk[i + 1]);
  }
  out.placement = std::move(seq);
  out.edges_used = static_cast<int>(out.walk.size()) - 1;
  return out;
}

bool StrollTable::satisfies_theorem3(const StrollResult& result) const {
  if (result.used_fallback || result.walk.size() < 2) return false;
  const int r = result.edges_used;
  if (r > levels_) return false;
  // For each position i >= 1 on the walk, the suffix starting there uses
  // (r - i) edges; Theorem 3 requires it to be the cheapest (r-i)-edge
  // stroll into t over every possible start row.
  for (int i = 1; i < r; ++i) {
    const NodeId u = result.walk[static_cast<std::size_t>(i)];
    const CandidateIdx row = m_->row_of(u);
    if (!row.valid()) return false;
    const double* level = cost_row(r - i);
    const double suffix = level[static_cast<std::size_t>(row.value())];
    const double global_min = *std::min_element(level, level + rows_);
    if (suffix > global_min + 1e-9) return false;
  }
  return true;
}

StrollResult solve_top1_dp(const AllPairs& apsp, NodeId s, NodeId t, int n,
                           double rate) {
  StrollTable table(apsp, t, rate);
  return table.find(s, n);
}

}  // namespace ppdc
