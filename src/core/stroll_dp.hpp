// DP-Stroll: Algorithm 2 of the paper, the dynamic program for TOP-1.
//
// Finding a shortest s-t stroll that visits >= n *distinct* switches is
// NP-hard (n-stroll, Theorem 1), but a shortest s-t stroll of exactly e
// *edges* on the metric closure G'' is polynomial. Algorithm 2 therefore
// computes, for growing edge budgets r = n+1, n+2, ..., the min-cost
// r-edge stroll (forbidding immediate edge backtracking, line 6 of the
// pseudocode) and stops at the first r whose stroll covers n distinct
// switches. Example 2 / Fig. 4 shows why the *complete* (metric-closure)
// graph is essential: on the raw graph the 3-edge optimum costs 7, on the
// closure it costs 6.
//
// StrollTable fixes the destination t and exposes queries from any source
// s; Algorithm 3 exploits this to amortize one DP over all ingress
// candidates of a given egress switch.
//
// Design notes / documented deviations:
//  * Intermediate nodes are restricted to switches. Hosts are leaves in
//    every topology here, so detouring through one can never reduce a
//    metric-closure stroll, and only switches count toward the n distinct
//    nodes anyway (pseudocode line 14 skips s and t when collecting p).
//  * The growth of r is capped; if the cap is hit (possible when the
//    anti-backtrack rule keeps oscillating between cheap switches) the
//    result is completed greedily with the nearest unused switches and
//    flagged via StrollResult::used_fallback. The cap never triggered in
//    any paper-scale experiment; it exists so the API is total.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "util/ids.hpp"
#include "util/indexed_vector.hpp"

namespace ppdc {

/// Outcome of a stroll query.
struct StrollResult {
  double cost = 0.0;          ///< stroll cost in G'' units (rate * distance)
  std::vector<NodeId> walk;   ///< node sequence s .. t on the metric closure
  std::vector<NodeId> placement;  ///< first n distinct switches, walk order
  int edges_used = 0;             ///< final edge budget r
  bool used_fallback = false;     ///< true if the greedy completion kicked in
};

/// Rate-scaled metric closure over a DP row universe (DESIGN.md §11).
/// The StrollTables of one Algorithm 3 solve differ only in their
/// destination, so they share one closure: the switch rows, the
/// NodeId -> row index and the rows × rows scaled metric are built once
/// per solve_top_dp call instead of once per egress candidate.
class StrollMetric {
 public:
  /// `rate` scales every metric distance (the λ_1 of TOP-1, or Λ when the
  /// tables are used inside Algorithm 3's chain placement). A non-empty
  /// `universe` restricts the DP rows (and hence every intermediate and
  /// fallback switch) to the given distinct switches — the fault-tolerant
  /// solvers pass CostModel::placement_candidates() so strolls never route
  /// through failed switches; empty means every switch of the topology.
  StrollMetric(const AllPairs& apsp, double rate,
               std::vector<NodeId> universe = {});

  const AllPairs& apsp() const noexcept { return *apsp_; }
  double rate() const noexcept { return rate_; }
  std::size_t rows() const noexcept { return switches_.size(); }
  /// DP row universe: CandidateIdx is the row id, the value the switch.
  const IndexedVector<CandidateIdx, NodeId>& switches() const noexcept {
    return switches_;
  }
  /// NodeId -> row; CandidateIdx::invalid() for nodes outside the universe.
  CandidateIdx row_of(NodeId v) const {
    return row_of_[static_cast<std::size_t>(v)];
  }
  /// Scaled metric row i: row(i)[k] = rate · c(switch i, switch k).
  const double* row(std::size_t i) const {
    return metric_.data() + i * rows();
  }
  /// rate · c(u, v) for any two nodes, hosts included.
  double cost(NodeId u, NodeId v) const { return rate_ * apsp_->cost(u, v); }

 private:
  const AllPairs* apsp_;
  double rate_;
  IndexedVector<CandidateIdx, NodeId> switches_;
  std::vector<CandidateIdx> row_of_;
  std::vector<double> metric_;  ///< rows × rows, row-major
};

/// Per-destination DP table of Algorithm 2.
class StrollTable {
 public:
  /// Builds and owns the metric closure of (apsp, rate, universe); see
  /// StrollMetric for the meaning of `rate` and `universe`.
  StrollTable(const AllPairs& apsp, NodeId destination, double rate = 1.0,
              std::vector<NodeId> universe = {});

  /// Borrows `metric`, which must outlive the table.
  StrollTable(const StrollMetric& metric, NodeId destination);
  StrollTable(const StrollMetric&& metric, NodeId destination) = delete;

  /// Finds a min-cost stroll from `s` to the table's destination visiting
  /// at least `n_distinct` distinct switches (excluding s and the
  /// destination). n_distinct == 0 degenerates to the direct metric edge —
  /// or, when s is the destination itself, to the single-node walk {s}
  /// (cost 0, no edges), so the walk invariant "consecutive nodes are
  /// distinct" holds for every returned walk.
  StrollResult find(NodeId s, int n_distinct);

  /// Theorem 3 sufficient-optimality condition: every suffix of the found
  /// walk must be a minimum-cost (r-i)-edge stroll to t over *all* start
  /// nodes. True means the DP answer is provably optimal for this query.
  bool satisfies_theorem3(const StrollResult& result) const;

  NodeId destination() const noexcept { return t_; }
  double rate() const noexcept { return m_->rate(); }

 private:
  StrollTable(std::unique_ptr<const StrollMetric> owned,
              NodeId destination);

  /// Extends the DP table to edge budget `e_max` (rows 1..e_max).
  void extend(int e_max);

  /// Cost of the best e-edge stroll from source `s` (possibly a host, not
  /// in the switch rows) plus its first hop.
  std::pair<double, NodeId> source_row(NodeId s, int e) const;

  /// Level-e cost row (e in [1, levels_]); contiguous over CandidateIdx.
  const double* cost_row(int e) const {
#if PPDC_CHECK_IDS
    PPDC_REQUIRE(e >= 1 && e <= levels_, "stroll level out of range");
#endif
    return cost_.data() + static_cast<std::size_t>(e - 1) * rows_;
  }
  const NodeId* succ_row(int e) const {
#if PPDC_CHECK_IDS
    PPDC_REQUIRE(e >= 1 && e <= levels_, "stroll level out of range");
#endif
    return succ_.data() + static_cast<std::size_t>(e - 1) * rows_;
  }

  std::unique_ptr<const StrollMetric> owned_;  ///< null when borrowed
  const StrollMetric* m_;
  NodeId t_;
  /// Flat structure-of-arrays DP state (DESIGN.md §11). The per-level
  /// tables live in two contiguous level-major buffers so the candidate
  /// min-scan of extend() is a plain index loop over double rows.
  std::size_t rows_ = 0;  ///< m_->rows(), the row stride
  int levels_ = 0;        ///< materialized edge budgets 1..levels_
  std::vector<double> metric_to_t_;  ///< rate · c(row, t), one per row
  std::vector<double> cost_;  ///< cost_[(e-1)·rows_ + row]: best e-edge stroll
  std::vector<NodeId> succ_;  ///< first hop of that stroll (kInvalidNode: none)
};

/// Convenience wrapper for one-shot TOP-1 queries: builds the table for
/// (s, t) and returns the stroll placing `n` VNFs (Algorithm 2's contract).
StrollResult solve_top1_dp(const AllPairs& apsp, NodeId s, NodeId t, int n,
                           double rate = 1.0);

}  // namespace ppdc
