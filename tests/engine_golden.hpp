// Golden traces of run_simulation: the fixed scenarios, the trace hash,
// and the pinned values (tests/engine_golden_test.cpp checks them; the
// single-shard cases of tests/sharded_equivalence_test.cpp check the
// sharded entry point against the same values).
//
// Every pinned value is the Hash64 of every SimTrace total and every
// EpochDecision field of one run, computed with the default build flags
// (no -march=native), as the BENCH checksums are. A changed value means
// the epoch loop changed a result somewhere in the run; re-pin only for a
// deliberate output change and list the changed fields where the change
// is recorded.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "sim/observer.hpp"
#include "topology/fat_tree.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc::golden {

inline constexpr int kHours = 8;
inline constexpr int kPairs = 120;
inline constexpr int kSfcLength = 5;
inline constexpr std::uint64_t kFlowSeed = 13;

/// One golden fabric: a k-ary fat-tree, pristine or under the fixed
/// switch/link failure schedule.
struct Fabric {
  int k = 4;
  bool faulted = false;

  std::string name() const {
    return "k" + std::to_string(k) + (faulted ? "/faulted" : "/pristine");
  }
  /// Migration coefficient of the VNF-migration policies on this fabric.
  double mu() const { return k == 4 ? 20.0 : 50.0; }
};

inline const Fabric kFabrics[] = {{4, false}, {4, true}, {8, true}};

inline VmPlacementConfig workload_config() {
  VmPlacementConfig cfg;
  cfg.num_pairs = kPairs;
  cfg.intra_rack_fraction = 0.8;
  cfg.rack_zipf_s = 2.2;
  return cfg;
}

/// The base flows of every golden run (StreamingWorkload over
/// workload_config() with Rng(kFlowSeed) draws the same population).
inline std::vector<VmFlow> fabric_flows(const Topology& topo) {
  Rng rng(kFlowSeed);
  return generate_vm_flows(topo, workload_config(), rng);
}

/// The failure timeline of a faulted fabric; empty on a pristine one.
inline FaultSchedule fabric_faults(const Topology& topo, const Fabric& f) {
  if (!f.faulted) return {};
  FaultScheduleConfig cfg;
  cfg.hours = kHours;
  cfg.switch_mtbf = 16.0;
  cfg.switch_mttr = 2.0;
  cfg.link_mtbf = 16.0;
  cfg.seed = 99;
  return generate_fault_schedule(topo.graph, cfg);
}

/// Hash64 over every SimTrace total and every EpochDecision field.
inline std::uint64_t trace_hash(const SimTrace& t) {
  Hash64 h;
  h.u64(t.initial_placement.size());
  for (const NodeId v : t.initial_placement) h.i64(v);
  h.u64(t.epochs.size());
  for (const EpochDecision& d : t.epochs) {
    h.f64(d.comm_cost).f64(d.migration_cost).f64(d.migration_distance);
    h.i64(d.vnf_migrations).i64(d.vm_migrations);
    h.u64(d.moved_flows.size());
    for (const FlowId f : d.moved_flows) h.i64(f.value());
    h.i64(d.truncated_solves).i64(d.switch_failures).i64(d.link_failures);
    h.i64(d.repairs).i64(d.recovery_migrations).f64(d.recovery_cost);
    h.i64(d.quarantined_flows).f64(d.quarantine_penalty).b(d.service_down);
    h.i64(static_cast<int>(d.rung)).b(d.policy_failed);
    h.i64(d.resolved_shards).i64(d.held_shards).i64(d.quarantined_shards);
    h.i64(d.shard_retries).f64(d.shard_penalty);
  }
  h.f64(t.total_comm_cost).f64(t.total_migration_cost).f64(t.total_cost);
  h.i64(t.total_vnf_migrations).i64(t.total_vm_migrations);
  h.i64(t.total_switch_failures).i64(t.total_link_failures);
  h.i64(t.total_repairs).i64(t.total_recovery_migrations);
  h.f64(t.total_recovery_cost).i64(t.quarantined_flow_epochs);
  h.f64(t.total_quarantine_penalty).i64(t.downtime_epochs);
  h.i64(t.total_truncated_solves).i64(t.ladder_transitions);
  h.i64(t.refresh_only_epochs).i64(t.frozen_epochs).i64(t.policy_failures);
  h.i64(t.audited_epochs).i64(t.total_shard_resolves);
  h.i64(t.total_shard_holds).i64(t.quarantined_shard_epochs);
  h.i64(t.total_shard_retries).f64(t.total_shard_penalty);
  return h.value();
}

struct Pin {
  std::string_view name;  ///< "<fabric>/<scenario>"
  std::uint64_t hash;
};

// clang-format off
inline constexpr Pin kPins[] = {
    {"k4/pristine/NoMigration", 0xe9bba015218890a6ULL},
    {"k4/pristine/mPareto", 0xb42f0948a33be885ULL},
    {"k4/pristine/Resolve", 0xb42f0948a33be885ULL},
    {"k4/pristine/Optimal-budget1-ladder", 0x13883fe26ce57825ULL},
    {"k4/pristine/PLAN", 0x116461ddfcb301c4ULL},
    {"k4/pristine/MCF-capacity4", 0xcc933837cac81638ULL},
    {"k4/pristine/mPareto-rate-schedule", 0x89594f187445b939ULL},
    {"k4/pristine/mPareto-downtime", 0x82c69030cf35bd44ULL},
    {"k4/pristine/Resolve-audit", 0x562241152f29cc8dULL},
    {"k4/pristine/PLAN-audit", 0xb35799aa88a0e5ccULL},
    {"k4/pristine/Flaky-ladder", 0x128cec3b17359a3bULL},
    {"k4/faulted/NoMigration", 0xdc50d4d47001d66eULL},
    {"k4/faulted/mPareto", 0x5668753471e6237fULL},
    {"k4/faulted/Resolve", 0x1875432e8a9877c6ULL},
    {"k4/faulted/Optimal-budget1-ladder", 0xf7a523ed7fddce31ULL},
    {"k4/faulted/PLAN", 0x1ae7b97f690c9cf0ULL},
    {"k4/faulted/MCF-capacity4", 0xcdbfb7c9d887a2f8ULL},
    {"k4/faulted/mPareto-rate-schedule", 0x49889e932cb652c5ULL},
    {"k4/faulted/mPareto-downtime", 0x32430b23bfe89ab0ULL},
    {"k4/faulted/Resolve-audit", 0xcf7c5ed12f1e9875ULL},
    {"k4/faulted/PLAN-audit", 0xbcdaf14bf4fa80f8ULL},
    {"k4/faulted/Flaky-ladder", 0x62aca2c7fdb89f37ULL},
    {"k8/faulted/NoMigration", 0x5fa0a155de94da43ULL},
    {"k8/faulted/mPareto", 0x08e4f253e943f112ULL},
    {"k8/faulted/Resolve", 0x08e4f253e943f112ULL},
    {"k8/faulted/Optimal-budget1-ladder", 0xbe479ffcf6827e00ULL},
    {"k8/faulted/PLAN", 0x103849cded7dedd5ULL},
    {"k8/faulted/MCF-capacity4", 0x9bfa486055bf0f98ULL},
    {"k8/faulted/mPareto-rate-schedule", 0x2ebc7016496968f3ULL},
    {"k8/faulted/mPareto-downtime", 0xedebf0e961e690e3ULL},
    {"k8/faulted/Resolve-audit", 0xae2fca0689b15d8eULL},
    {"k8/faulted/PLAN-audit", 0xb22b819a796bd1ddULL},
    {"k8/faulted/Flaky-ladder", 0x9e410a6d4f9e7e76ULL},
};
// clang-format on

/// The pinned hash of `name`; 0 when no value is pinned under that name.
inline std::uint64_t pinned(std::string_view name) {
  for (const Pin& p : kPins) {
    if (p.name == name) return p.hash;
  }
  return 0;
}

}  // namespace ppdc::golden
