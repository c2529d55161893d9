// Pinned micro-benchmarks of the library's computational kernels: APSP
// construction, the DP-Stroll table, the Algorithm 3 placement sweep, the
// mPareto frontier scan and the full cost-model refresh.
//
// Usage: micro_kernels --bench_json DIR [--smoke]. Runs the pinned
// scenarios and emits one BENCH_<kernel>.json perf artifact per kernel
// (see bench_common and EXPERIMENTS.md). tools/bench_compare gates these
// against the committed baselines in bench/baselines/.
#include <algorithm>

#include "bench_common.hpp"
#include "core/migration_pareto.hpp"
#include "core/placement_dp.hpp"
#include "core/stroll_dp.hpp"
#include "topology/fat_tree.hpp"
#include "util/checksum.hpp"
#include "workload/vm_placement.hpp"

namespace {

using namespace ppdc;

/// Smoke mode of the pinned scenarios (--smoke): fewer, shorter
/// repetitions, recorded in the artifact so bench_compare can widen its
/// tolerance accordingly.
bool g_smoke = false;

std::vector<VmFlow> workload(const Topology& topo, int l, std::uint64_t seed) {
  VmPlacementConfig cfg;
  cfg.num_pairs = l;
  Rng rng(seed);
  return generate_vm_flows(topo, cfg, rng);
}

// ---------------------------------------------------------------------------
// Pinned BENCH_*.json scenarios. Every parameter below (arity, workload
// size, seed, n, mu) is part of the artifact's scenario fingerprint:
// editing one without refreshing bench/baselines/ makes bench_compare
// reject the comparison instead of reporting a bogus delta. The checksums
// hash kernel *outputs* bit-exactly, so the artifacts also pin the
// numeric behaviour of the flattened kernels across PRs.
// ---------------------------------------------------------------------------

using bench::BenchRecord;

std::uint64_t hash_placement(ppdc::Hash64& h, const Placement& p) {
  h.u64(p.size());
  for (const NodeId w : p) h.i64(w);
  return h.value();
}

BenchRecord pin_all_pairs() {
  BenchRecord rec;
  rec.kernel = "AllPairs";
  rec.scenario = "fat-tree k=8, full APSP build";
  rec.fingerprint = Hash64{}.str(rec.kernel).i64(8).value();
  const Topology topo = build_fat_tree(8);
  {
    const AllPairs apsp(topo.graph);
    rec.checksum = Hash64{}
                       .f64(apsp.diameter())
                       .f64(apsp.min_switch_distance())
                       .i64(apsp.num_nodes())
                       .value();
  }
  rec.timing = bench::time_kernel(
      [&] {
        AllPairs apsp(topo.graph);
        bench::sink(apsp.diameter());
      },
      g_smoke);
  return rec;
}

BenchRecord pin_stroll_dp() {
  BenchRecord rec;
  rec.kernel = "StrollDp";
  rec.scenario = "fat-tree k=8, l=1 seed 7, n=13";
  rec.fingerprint =
      Hash64{}.str(rec.kernel).i64(8).i64(1).u64(7).i64(13).value();
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, 1, 7);
  const StrollResult ref =
      solve_top1_dp(apsp, flows[0].src_host, flows[0].dst_host, 13);
  Hash64 h;
  h.f64(ref.cost).i64(ref.edges_used).b(ref.used_fallback);
  hash_placement(h, ref.walk);
  rec.checksum = hash_placement(h, ref.placement);
  rec.timing = bench::time_kernel(
      [&] {
        const StrollResult r =
            solve_top1_dp(apsp, flows[0].src_host, flows[0].dst_host, 13);
        bench::sink(r.cost);
      },
      g_smoke);
  return rec;
}

BenchRecord pin_placement_dp() {
  BenchRecord rec;
  rec.kernel = "PlacementDp";
  rec.scenario = "fat-tree k=8, l=200 seed 11, n=7";
  rec.fingerprint =
      Hash64{}.str(rec.kernel).i64(8).i64(200).u64(11).i64(7).value();
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, 200, 11);
  CostModel cm(apsp, flows);
  const PlacementResult ref = solve_top_dp(cm, 7);
  Hash64 h;
  h.f64(ref.comm_cost).b(ref.used_fallback);
  rec.checksum = hash_placement(h, ref.placement);
  rec.timing = bench::time_kernel(
      [&] {
        const PlacementResult r = solve_top_dp(cm, 7);
        bench::sink(r.comm_cost);
      },
      g_smoke);
  return rec;
}

BenchRecord pin_pareto_migration() {
  BenchRecord rec;
  rec.kernel = "ParetoMigration";
  rec.scenario =
      "fat-tree k=8, l=200 seed 13, n=7, reversed rates, mu=1e4";
  rec.fingerprint = Hash64{}
                        .str(rec.kernel)
                        .i64(8)
                        .i64(200)
                        .u64(13)
                        .i64(7)
                        .f64(1e4)
                        .value();
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  auto flows = workload(topo, 200, 13);
  CostModel cm(apsp, flows);
  const Placement from = solve_top_dp(cm, 7).placement;
  std::vector<double> rates = rates_of(flows);
  std::reverse(rates.begin(), rates.end());
  set_rates(flows, rates);
  cm.refresh();
  const MigrationResult ref = solve_tom_pareto(cm, from, 1e4);
  Hash64 h;
  h.f64(ref.total_cost)
      .f64(ref.migration_cost)
      .f64(ref.comm_cost)
      .i64(ref.vnfs_moved);
  rec.checksum = hash_placement(h, ref.migration);
  rec.timing = bench::time_kernel(
      [&] {
        const MigrationResult r = solve_tom_pareto(cm, from, 1e4);
        bench::sink(r.total_cost);
      },
      g_smoke);
  return rec;
}

BenchRecord pin_cost_refresh() {
  BenchRecord rec;
  rec.kernel = "CostRefresh";
  rec.scenario = "fat-tree k=8, l=5000 seed 19, full attraction rescan";
  rec.fingerprint =
      Hash64{}.str(rec.kernel).i64(8).i64(5000).u64(19).value();
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const auto flows = workload(topo, 5000, 19);
  CostModel cm(apsp, flows);
  cm.refresh();
  Hash64 h;
  h.f64(cm.total_rate())
      .f64(cm.min_ingress_attraction())
      .f64(cm.min_egress_attraction());
  for (const NodeId sw : cm.placement_candidates()) {
    h.f64(cm.ingress_attraction(sw)).f64(cm.egress_attraction(sw));
  }
  rec.checksum = h.value();
  rec.timing = bench::time_kernel(
      [&] {
        cm.refresh();
        bench::sink(cm.min_ingress_attraction());
      },
      g_smoke);
  return rec;
}

int run_pinned(const std::string& dir) {
  const bench::BenchBuildInfo build = bench::bench_build_info();
  const BenchRecord records[] = {
      pin_all_pairs(), pin_stroll_dp(), pin_placement_dp(),
      pin_pareto_migration(), pin_cost_refresh()};
  for (const BenchRecord& rec : records) {
    if (!bench::write_bench_json(dir, rec, build, g_smoke)) return 1;
    std::cout << "BENCH_" << rec.kernel << ".json  best "
              << rec.timing.best_ns / 1e6 << " ms  checksum "
              << bench::bench_hex64(rec.checksum) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench_json" && i + 1 < argc) {
      json_dir = argv[++i];
    } else if (arg == "--smoke") {
      g_smoke = true;
    } else {
      std::cerr << "micro_kernels: unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  if (json_dir.empty()) {
    std::cerr << "usage: micro_kernels --bench_json DIR [--smoke]\n";
    return 2;
  }
  return run_pinned(json_dir);
}
