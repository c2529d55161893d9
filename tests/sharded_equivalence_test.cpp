// Determinism contract of the sharded streaming engine (sim/sharded.hpp):
//
//   * Over ShardMap::single with a churn-free workload, the sharded loop
//     reproduces the golden run_simulation traces (tests/engine_golden.hpp)
//     — every trace total and every per-epoch decision field, pristine and
//     faulted.
//   * Over the multi-shard pod map, the trace is a pure function of the
//     seed: 1, 2 and 4 worker threads produce bit-identical traces (the
//     hour-0 placement included) under churn, faults, and
//     bounded-staleness holds.
//   * Held shards charge exact costs: with a hold-everything threshold and
//     a placement-stable policy, the trace matches the resolve-every-epoch
//     run bit for bit.
//   * run_experiment's sharded path inherits the same thread invariance.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/sharded_cost_model.hpp"
#include "engine_golden.hpp"
#include "fault/degraded.hpp"
#include "fault/fault.hpp"
#include "graph/apsp.hpp"
#include "sim/audit.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "sim/sharded.hpp"
#include "topology/fat_tree.hpp"
#include "workload/streaming.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

VmPlacementConfig workload_config(int pairs) {
  VmPlacementConfig cfg;
  cfg.num_pairs = pairs;
  cfg.intra_rack_fraction = 0.8;
  return cfg;
}

void expect_equal_decisions(const EpochDecision& a, const EpochDecision& b,
                            int hour) {
  EXPECT_EQ(a.comm_cost, b.comm_cost) << "hour " << hour;
  EXPECT_EQ(a.migration_cost, b.migration_cost) << "hour " << hour;
  EXPECT_EQ(a.migration_distance, b.migration_distance) << "hour " << hour;
  EXPECT_EQ(a.vnf_migrations, b.vnf_migrations) << "hour " << hour;
  EXPECT_EQ(a.vm_migrations, b.vm_migrations) << "hour " << hour;
  EXPECT_EQ(a.truncated_solves, b.truncated_solves) << "hour " << hour;
  EXPECT_EQ(a.switch_failures, b.switch_failures) << "hour " << hour;
  EXPECT_EQ(a.link_failures, b.link_failures) << "hour " << hour;
  EXPECT_EQ(a.repairs, b.repairs) << "hour " << hour;
  EXPECT_EQ(a.recovery_migrations, b.recovery_migrations) << "hour " << hour;
  EXPECT_EQ(a.recovery_cost, b.recovery_cost) << "hour " << hour;
  EXPECT_EQ(a.quarantined_flows, b.quarantined_flows) << "hour " << hour;
  EXPECT_EQ(a.quarantine_penalty, b.quarantine_penalty) << "hour " << hour;
  EXPECT_EQ(a.service_down, b.service_down) << "hour " << hour;
  EXPECT_EQ(a.rung, b.rung) << "hour " << hour;
  EXPECT_EQ(a.policy_failed, b.policy_failed) << "hour " << hour;
  EXPECT_EQ(a.resolved_shards, b.resolved_shards) << "hour " << hour;
  EXPECT_EQ(a.held_shards, b.held_shards) << "hour " << hour;
  EXPECT_EQ(a.quarantined_shards, b.quarantined_shards) << "hour " << hour;
  EXPECT_EQ(a.shard_retries, b.shard_retries) << "hour " << hour;
  EXPECT_EQ(a.shard_penalty, b.shard_penalty) << "hour " << hour;
}

void expect_equal_traces(const SimTrace& a, const SimTrace& b) {
  EXPECT_EQ(a.initial_placement, b.initial_placement);
  EXPECT_EQ(a.total_comm_cost, b.total_comm_cost);
  EXPECT_EQ(a.total_migration_cost, b.total_migration_cost);
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.total_vnf_migrations, b.total_vnf_migrations);
  EXPECT_EQ(a.total_vm_migrations, b.total_vm_migrations);
  EXPECT_EQ(a.total_switch_failures, b.total_switch_failures);
  EXPECT_EQ(a.total_link_failures, b.total_link_failures);
  EXPECT_EQ(a.total_repairs, b.total_repairs);
  EXPECT_EQ(a.total_recovery_migrations, b.total_recovery_migrations);
  EXPECT_EQ(a.total_recovery_cost, b.total_recovery_cost);
  EXPECT_EQ(a.quarantined_flow_epochs, b.quarantined_flow_epochs);
  EXPECT_EQ(a.total_quarantine_penalty, b.total_quarantine_penalty);
  EXPECT_EQ(a.downtime_epochs, b.downtime_epochs);
  EXPECT_EQ(a.total_truncated_solves, b.total_truncated_solves);
  EXPECT_EQ(a.ladder_transitions, b.ladder_transitions);
  EXPECT_EQ(a.refresh_only_epochs, b.refresh_only_epochs);
  EXPECT_EQ(a.frozen_epochs, b.frozen_epochs);
  EXPECT_EQ(a.policy_failures, b.policy_failures);
  EXPECT_EQ(a.total_shard_resolves, b.total_shard_resolves);
  EXPECT_EQ(a.total_shard_holds, b.total_shard_holds);
  EXPECT_EQ(a.quarantined_shard_epochs, b.quarantined_shard_epochs);
  EXPECT_EQ(a.total_shard_retries, b.total_shard_retries);
  EXPECT_EQ(a.total_shard_penalty, b.total_shard_penalty);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t h = 0; h < a.epochs.size(); ++h) {
    expect_equal_decisions(a.epochs[h], b.epochs[h], static_cast<int>(h));
  }
}

FaultSchedule some_faults(const Topology& topo, int hours) {
  FaultScheduleConfig cfg;
  cfg.hours = hours;
  cfg.switch_mtbf = 5.0;
  cfg.switch_mttr = 2.0;
  cfg.link_mtbf = 8.0;
  cfg.seed = 99;
  return generate_fault_schedule(topo.graph, cfg);
}

/// Single-shard, churn-free: the sharded loop reproduces the golden
/// run_simulation traces (tests/engine_golden.hpp) bit for bit.
void check_single_shard(const golden::Fabric& fabric,
                        const MigrationPolicy& proto,
                        const std::string& scenario) {
  const Topology topo = build_fat_tree(fabric.k);
  const AllPairs apsp(topo.graph);

  SimConfig sim;
  sim.hours = golden::kHours;
  sim.faults = golden::fabric_faults(topo, fabric);

  const ShardMap map = ShardMap::single(topo.graph);
  StreamingWorkload workload(topo, golden::workload_config(),
                             StreamingChurnConfig{}, Rng(golden::kFlowSeed));
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 1;
  const SimTrace shard_trace = run_sharded_simulation(
      apsp, map, workload, golden::kSfcLength, sim, sharded, proto);

  const std::string name = fabric.name() + "/" + scenario;
  EXPECT_EQ(golden::trace_hash(shard_trace), golden::pinned(name)) << name;
}

TEST(ShardedEquivalence, SingleShardPristineNoMigration) {
  NoMigrationPolicy proto;
  check_single_shard(golden::kFabrics[0], proto, "NoMigration");
}

TEST(ShardedEquivalence, SingleShardPristineMPareto) {
  ParetoMigrationPolicy proto(golden::kFabrics[0].mu());
  check_single_shard(golden::kFabrics[0], proto, "mPareto");
}

TEST(ShardedEquivalence, SingleShardFaultedMPareto) {
  ParetoMigrationPolicy proto(golden::kFabrics[1].mu());
  check_single_shard(golden::kFabrics[1], proto, "mPareto");
}

TEST(ShardedEquivalence, SingleShardFaultedK8) {
  ParetoMigrationPolicy proto(golden::kFabrics[2].mu());
  check_single_shard(golden::kFabrics[2], proto, "mPareto");
}

SimTrace run_pod_sharded(int threads, double resolve_fraction,
                         int max_staleness, bool with_faults,
                         const StreamingChurnConfig& churn) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const int hours = 10;

  SimConfig sim;
  sim.hours = hours;
  if (with_faults) sim.faults = some_faults(topo, hours);

  const ShardMap map = ShardMap::by_ingress_pod(topo);
  EXPECT_GT(map.num_shards(), 1);
  StreamingWorkload workload(topo, workload_config(160), churn, Rng(21));

  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = threads;
  sharded.resolve_churn_fraction = resolve_fraction;
  sharded.max_staleness = max_staleness;
  sharded.churn = churn;

  ParetoMigrationPolicy proto(1e3);
  return run_sharded_simulation(apsp, map, workload, 5, sim, sharded, proto);
}

TEST(ShardedEquivalence, MultiShardThreadCountInvariant) {
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 20;
  churn.departure_prob = 0.1;
  churn.rerate_prob = 0.2;
  const SimTrace serial = run_pod_sharded(1, 0.15, 3, true, churn);
  const SimTrace parallel = run_pod_sharded(4, 0.15, 3, true, churn);
  expect_equal_traces(serial, parallel);
  // Active faults force re-solves, so this run resolves throughout.
  EXPECT_GT(serial.total_shard_resolves, 0);
}

TEST(ShardedEquivalence, PooledHourZeroThreadCountInvariant) {
  // The hour-0 TOP solve runs on the shard pool like every epoch's shard
  // phase. With resolve_churn_fraction 0 every shard also re-solves every
  // epoch, so 1, 2 and 4 threads run all the pool's solves.
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 20;
  churn.departure_prob = 0.1;
  churn.rerate_prob = 0.2;
  const SimTrace serial = run_pod_sharded(1, 0.0, 3, false, churn);
  EXPECT_EQ(serial.total_shard_holds, 0);
  EXPECT_FALSE(serial.initial_placement.empty());
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const SimTrace pooled = run_pod_sharded(threads, 0.0, 3, false, churn);
    EXPECT_EQ(pooled.initial_placement, serial.initial_placement);
    expect_equal_traces(serial, pooled);
  }
}

TEST(ShardedEquivalence, LightChurnHoldsAndStaysThreadInvariant) {
  // Pristine fabric, churn well below the re-solve threshold: bounded
  // staleness actually holds shards — and the held/resolved mix is still
  // bit-identical across thread counts.
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 2;
  churn.departure_prob = 0.01;
  churn.rerate_prob = 0.02;
  const SimTrace serial = run_pod_sharded(1, 0.5, 3, false, churn);
  const SimTrace parallel = run_pod_sharded(4, 0.5, 3, false, churn);
  expect_equal_traces(serial, parallel);
  EXPECT_GT(serial.total_shard_holds, 0);
  EXPECT_GT(serial.total_shard_resolves, 0);
}

TEST(ShardedEquivalence, HeldShardsChargeExactCosts) {
  // NoMigration never moves, so a held placement IS the resolved
  // placement; charging held shards exactly means the hold-everything run
  // must match the resolve-every-epoch run bit for bit — except for the
  // resolved/held split itself, which we check separately.
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  SimConfig sim;
  sim.hours = 6;
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  NoMigrationPolicy proto;

  auto run = [&](double fraction, int staleness) {
    StreamingWorkload workload(topo, workload_config(140),
                               StreamingChurnConfig{}, Rng(5));
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.threads = 2;
    sharded.resolve_churn_fraction = fraction;
    sharded.max_staleness = staleness;
    return run_sharded_simulation(apsp, map, workload, 5, sim, sharded,
                                  proto);
  };

  const SimTrace resolve_always = run(0.0, 4);
  const SimTrace hold_mostly = run(0.9, 1000);

  EXPECT_EQ(resolve_always.total_comm_cost, hold_mostly.total_comm_cost);
  EXPECT_EQ(resolve_always.total_cost, hold_mostly.total_cost);
  ASSERT_EQ(resolve_always.epochs.size(), hold_mostly.epochs.size());
  for (std::size_t h = 0; h < resolve_always.epochs.size(); ++h) {
    EXPECT_EQ(resolve_always.epochs[h].comm_cost,
              hold_mostly.epochs[h].comm_cost)
        << "hour " << h;
  }
  // Every epoch accounts for every shard, one way or the other.
  const int shards = map.num_shards();
  EXPECT_EQ(resolve_always.total_shard_resolves, sim.hours * shards);
  EXPECT_EQ(resolve_always.total_shard_holds, 0);
  // Hour 0 always solves; with zero churn every later epoch holds.
  EXPECT_EQ(hold_mostly.total_shard_resolves, shards);
  EXPECT_EQ(hold_mostly.total_shard_holds, (sim.hours - 1) * shards);
}

TEST(ShardedEquivalence, MonolithicOnlyFeaturesAreRejected) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  NoMigrationPolicy proto;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;

  {
    StreamingWorkload workload(topo, workload_config(40),
                               StreamingChurnConfig{}, Rng(1));
    SimConfig sim;
    sim.hours = 2;
    sim.rate_schedule = [](Hour) { return std::vector<double>{}; };
    EXPECT_THROW(run_sharded_simulation(apsp, map, workload, 3, sim, sharded,
                                        proto),
                 PpdcError);
  }
  // SimConfig::audit is no longer monolithic-only: the sharded engine
  // attaches an InvariantAuditor and a clean run passes with full
  // epoch coverage.
  {
    StreamingWorkload workload(topo, workload_config(40),
                               StreamingChurnConfig{}, Rng(1));
    SimConfig sim;
    sim.hours = 2;
    sim.audit.enabled = true;
    const SimTrace t =
        run_sharded_simulation(apsp, map, workload, 3, sim, sharded, proto);
    EXPECT_EQ(t.audited_epochs, 2);
  }
}

/// Prototype whose `throwing_clone`-th clone() (1-based) yields a policy
/// that throws on every on_epoch call; every other clone behaves like
/// NoMigration. run_sharded_simulation clones once per shard in fixed pod
/// order, so "clone #2 throws" means "shard 1 fails every attempt".
class SelectiveThrowPolicy : public MigrationPolicy {
 public:
  explicit SelectiveThrowPolicy(int throwing_clone)
      : throwing_clone_(throwing_clone), clones_(std::make_shared<int>(0)) {}

  std::string name() const override { return "SelectiveThrow"; }

  std::unique_ptr<MigrationPolicy> clone() const override {
    const int index = ++*clones_;
    auto p = std::make_unique<SelectiveThrowPolicy>(throwing_clone_);
    p->clones_ = clones_;
    p->throws_ = index == throwing_clone_;
    return p;
  }

  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    if (throws_) throw PpdcError("synthetic shard failure");
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    return d;
  }

 private:
  int throwing_clone_;
  std::shared_ptr<int> clones_;
  bool throws_ = false;
};

TEST(ShardedFaultContainment, ThrowingShardIsQuarantinedWhileOthersProgress) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  SimConfig sim;
  sim.hours = 12;
  sim.ladder.enabled = true;
  sim.audit.enabled = true;

  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 2;
  sharded.quarantine_sla = 3.0;

  auto run = [&](const MigrationPolicy& proto, int threads) {
    ShardedStreamingConfig cfg = sharded;
    cfg.threads = threads;
    StreamingWorkload workload(topo, workload_config(140),
                               StreamingChurnConfig{}, Rng(9));
    return run_sharded_simulation(apsp, map, workload, 5, sim, cfg, proto);
  };

  NoMigrationPolicy healthy;
  const SimTrace baseline = run(healthy, 2);
  SelectiveThrowPolicy failing(2);  // shard 1 throws on every attempt
  const SimTrace contained = run(failing, 2);

  // Containment: the quarantined shard holds its placement and is
  // re-costed exactly, so every epoch's communication cost is
  // bit-identical to the all-healthy baseline — the other shards' costs
  // never move.
  ASSERT_EQ(contained.epochs.size(), baseline.epochs.size());
  for (std::size_t h = 0; h < contained.epochs.size(); ++h) {
    EXPECT_EQ(contained.epochs[h].comm_cost, baseline.epochs[h].comm_cost)
        << "hour " << h;
  }
  EXPECT_EQ(contained.total_comm_cost, baseline.total_comm_cost);
  EXPECT_EQ(contained.downtime_epochs, 0);

  // ...while the failure is fully visible in the containment accounting:
  // the first throw plus at least one backed-off retry, quarantined
  // shard-epochs, and the SLA penalty on the quarantined shard's served
  // rate (the only cost delta vs the baseline).
  EXPECT_GE(contained.policy_failures, 2);
  EXPECT_GE(contained.total_shard_retries, 1);
  EXPECT_GT(contained.quarantined_shard_epochs, 0);
  EXPECT_GT(contained.total_shard_penalty, 0.0);
  EXPECT_EQ(contained.total_cost,
            contained.total_comm_cost + contained.total_shard_penalty);
  EXPECT_EQ(baseline.quarantined_shard_epochs, 0);
  EXPECT_EQ(baseline.total_shard_penalty, 0.0);
  EXPECT_EQ(baseline.policy_failures, 0);

  // Per-shard ladder, down and back up: the merged rung degrades while
  // the failing shard sits out its backoff and returns to kFull for the
  // retry attempts.
  EXPECT_GE(contained.ladder_transitions, 3);
  bool saw_degraded = false;
  bool saw_retry_at_full = false;
  for (std::size_t h = 1; h < contained.epochs.size(); ++h) {
    const EpochDecision& d = contained.epochs[h];
    if (d.rung != DegradationRung::kFull) saw_degraded = true;
    if (saw_degraded && d.rung == DegradationRung::kFull &&
        d.shard_retries > 0) {
      saw_retry_at_full = true;
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_retry_at_full);

  // And the whole containment trajectory is thread-count invariant.
  SelectiveThrowPolicy failing1(2);
  SelectiveThrowPolicy failing4(2);
  expect_equal_traces(run(failing1, 1), run(failing4, 4));
}

TEST(ShardedAudit, CleanOnPristineAndPodOutage) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 8;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;

  auto run = [&](bool pod_outage) {
    SimConfig sim;
    sim.hours = 10;
    sim.ladder.enabled = true;
    sim.audit.enabled = true;
    if (pod_outage) {
      FaultScheduleConfig fc;
      fc.hours = sim.hours;
      fc.maintenance = {{"pod0", Hour{3}, Hour{6}}};
      sim.faults = generate_fault_schedule(topo, fc);
    }
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.threads = 4;
    sharded.churn = churn;
    sharded.resolve_churn_fraction = 0.3;
    sharded.max_staleness = 3;
    sharded.quarantine_sla = 2.0;
    StreamingWorkload workload(topo, workload_config(160), churn, Rng(31));
    ParetoMigrationPolicy proto(1e3);
    return run_sharded_simulation(apsp, map, workload, 5, sim, sharded,
                                  proto);
  };

  const SimTrace pristine = run(false);
  EXPECT_EQ(pristine.audited_epochs, 10);
  EXPECT_GT(pristine.total_shard_holds, 0);

  const SimTrace outage = run(true);
  EXPECT_EQ(outage.audited_epochs, 10);
  // The drained pod actually cut flows off from the core (the audit
  // covered real quarantine accounting, not a silently pristine run).
  EXPECT_GT(outage.quarantined_flow_epochs, 0);
  EXPECT_GT(outage.total_switch_failures, 0);
}

TEST(ShardedAudit, CorruptPlacementNamesShard) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  SimConfig sim;
  sim.hours = 6;
  sim.audit.enabled = true;
  sim.audit.corrupt_placement_epoch = Hour{2};
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 2;
  StreamingWorkload workload(topo, workload_config(120),
                             StreamingChurnConfig{}, Rng(5));
  NoMigrationPolicy proto;
  try {
    run_sharded_simulation(apsp, map, workload, 5, sim, sharded, proto);
    FAIL() << "corrupted shard placement escaped the sharded auditor";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().invariant, "placement-feasibility");
    EXPECT_EQ(e.violation().epoch, Hour{2});
    EXPECT_EQ(e.violation().shard, map.names[0]);
    EXPECT_NE(std::string(e.what()).find(map.names[0]), std::string::npos)
        << e.what();
  }
}

// Drives InvariantAuditor directly through one epoch: the event stream
// of an uneventful epoch, then one shard check per context.
class DirectAudit {
 public:
  explicit DirectAudit(std::vector<std::string> shard_names)
      : auditor_(audit_options(), "direct", std::move(shard_names)) {
    auditor_.on_run_begin(Hour{4}, Placement{});
    auditor_.on_epoch_begin(Hour{1});
    auditor_.on_epoch_end(Hour{1}, EpochDecision{});
  }
  void check(const ShardAuditContext& ctx) { auditor_.check_shard_epoch(ctx); }

 private:
  static AuditOptions audit_options() {
    AuditOptions o;
    o.enabled = true;
    return o;
  }
  InvariantAuditor auditor_;
};

ShardAuditContext shard_context(int shard, const std::string& name,
                                const CostModel& model,
                                const std::vector<VmFlow>& flows,
                                const Placement& p, double charged) {
  ShardAuditContext ctx;
  ctx.epoch = Hour{1};
  ctx.shard = shard;
  ctx.name = &name;
  ctx.model = &model;
  ctx.flows = &flows;
  ctx.placement = &p;
  ctx.charged_comm = charged;
  ctx.n = static_cast<int>(p.size());
  return ctx;
}

TEST(ShardedAudit, DirectChargeOffBeyondToleranceNamesShard) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  Rng rng(71);
  auto flows = generate_vm_flows(topo, workload_config(40), rng);
  flows[5].rate = 0.0;  // a vacant slot is not charged
  const CostModel model(apsp, flows);
  const auto& sw = topo.graph.switches();
  const Placement p = {sw[0], sw[5], sw[9]};
  double exact = 0.0;
  for (const VmFlow& f : flows) {
    if (f.rate != 0.0) exact += model.flow_cost(f, p);
  }
  const std::vector<std::string> names = {"podA", "podB"};
  DirectAudit audit(names);
  // The exact per-flow sum passes ...
  audit.check(shard_context(0, names[0], model, flows, p, exact));
  // ... and a charge off by far more than rel_tol · magnitude + abs_tol
  // is reported against the shard that charged it.
  try {
    audit.check(shard_context(1, names[1], model, flows, p, exact * 1.01));
    FAIL() << "a charge off by 1% escaped the conservation check";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().invariant, "cost-conservation");
    EXPECT_EQ(e.violation().shard, "podB");
    EXPECT_EQ(e.violation().epoch, Hour{1});
    EXPECT_NE(std::string(e.what()).find("podB"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedAudit, DirectInfiniteServedFlowCostIsInfeasible) {
  // Pod 0 cut off: the degraded APSP holds +inf between pod 0's hosts and
  // the core, so a served pod-0 flow cannot reach a core placement.
  const Topology topo = build_fat_tree(4);
  const Graph& g = topo.graph;
  std::vector<char> dead(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const NodeId v : g.switches()) {
    if (g.label(v).rfind("agg0_", 0) == 0) {
      dead[static_cast<std::size_t>(v)] = 1;
    }
  }
  const DegradedNetwork net(g, dead, {});
  NodeId cut_host = kInvalidNode;
  std::vector<NodeId> core_hosts;
  for (const NodeId h : g.hosts()) {
    if (!net.in_core(h)) {
      if (cut_host == kInvalidNode) cut_host = h;
    } else {
      core_hosts.push_back(h);
    }
  }
  ASSERT_NE(cut_host, kInvalidNode);
  ASSERT_GE(core_hosts.size(), 2u);
  std::vector<VmFlow> flows = {{core_hosts[0], core_hosts[1], 2.0, 0},
                               {cut_host, core_hosts[0], 0.0, 0},
                               {cut_host, core_hosts[1], 1.5, 0}};
  const CostModel model(net.apsp(), flows);
  const auto& core = net.core_switches();
  const Placement p = {core[0], core[1], core[2]};
  const std::vector<std::string> names = {"pod0", "pod1"};
  DirectAudit audit(names);
  ShardAuditContext ctx = shard_context(1, names[1], model, flows, p, 0.0);
  ctx.degraded = &net;
  try {
    audit.check(ctx);
    FAIL() << "a served flow at +inf cost escaped the feasibility check";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().invariant, "placement-feasibility");
    EXPECT_EQ(e.violation().shard, "pod1");
    EXPECT_EQ(e.violation().flow, FlowId{2});
    EXPECT_EQ(e.violation().node, p.front());
  }
}

// ShardedCostModel builds its shard models on the shard pool: every
// thread count gives the same shards, and a failure is the first bad
// shard's in shard order.
void expect_equal_shards(const ShardedCostModel::ShardSnapshot& a,
                         const ShardedCostModel::ShardSnapshot& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].src_host, b.flows[i].src_host);
    EXPECT_EQ(a.flows[i].dst_host, b.flows[i].dst_host);
    EXPECT_EQ(a.flows[i].rate, b.flows[i].rate);
    EXPECT_EQ(a.flows[i].group, b.flows[i].group);
  }
  EXPECT_EQ(a.base_rates, b.base_rates);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.global_ids, b.global_ids);
  EXPECT_EQ(a.free_locals, b.free_locals);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.model.num_groups, b.model.num_groups);
  EXPECT_EQ(a.model.base_rates, b.model.base_rates);
  EXPECT_EQ(a.model.groups, b.model.groups);
  EXPECT_EQ(a.model.group_rows, b.model.group_rows);
  EXPECT_EQ(a.model.row_groups, b.model.row_groups);
  EXPECT_EQ(a.model.group_ingress, b.model.group_ingress);
  EXPECT_EQ(a.model.group_egress, b.model.group_egress);
  EXPECT_EQ(a.model.last_scales, b.model.last_scales);
  EXPECT_EQ(a.model.snap_src, b.model.snap_src);
  EXPECT_EQ(a.model.snap_dst, b.model.snap_dst);
}

TEST(ShardedCostModelBuild, PooledBuildIsThreadCountInvariant) {
  const Topology topo = build_fat_tree(8);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  Rng rng(73);
  auto flows = generate_vm_flows(topo, workload_config(600), rng);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].group = static_cast<int>(i % 3) * 2;  // sparse ids 0, 2, 4
    if (i % 11 == 4) flows[i].rate = 0.0;
  }
  const ShardedCostModel serial(apsp, map, flows, 6);
  ASSERT_GT(serial.num_shards(), 4);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const ShardedCostModel pooled(apsp, map, flows, 6, threads);
    ASSERT_EQ(pooled.num_shards(), serial.num_shards());
    for (int s = 0; s < serial.num_shards(); ++s) {
      SCOPED_TRACE(::testing::Message() << "shard " << s);
      expect_equal_shards(pooled.shard_snapshot(s), serial.shard_snapshot(s));
    }
  }
}

TEST(ShardedCostModelBuild, PooledBuildReportsFirstBadShard) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  Rng rng(79);
  const auto flows = generate_vm_flows(topo, workload_config(200), rng);
  auto first_in_shard = [&](int shard) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (map.shard_of(flows[i].src_host) == shard) return i;
    }
    ADD_FAILURE() << "no flow in shard " << shard;
    return std::size_t{0};
  };
  auto build_error = [&](const std::vector<VmFlow>& bad, int threads) {
    try {
      ShardedCostModel shards(apsp, map, bad, 2, threads);
    } catch (const PpdcError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  std::vector<VmFlow> bad = flows;
  bad[first_in_shard(1)].rate = -1.0;       // negative base in shard 1
  bad[first_in_shard(3)].group = 1 << 20;   // group id out of domain in 3
  std::vector<VmFlow> only_three = flows;
  only_three[first_in_shard(3)].group = 1 << 20;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const std::string both = build_error(bad, threads);
    EXPECT_NE(both.find("negative base rate"), std::string::npos) << both;
    const std::string three = build_error(only_three, threads);
    EXPECT_NE(three.find("outside the supported domain"), std::string::npos)
        << three;
  }
}

/// Flips the cancellation flag at the end of a chosen epoch, simulating a
/// SIGTERM that lands mid-run.
class CancelAtEpoch : public EpochObserver {
 public:
  CancelAtEpoch(std::atomic<bool>* flag, int epoch)
      : flag_(flag), epoch_(epoch) {}
  void on_epoch_end(Hour hour, const EpochDecision&) override {
    if (hour.value() == epoch_) flag_->store(true);
  }

 private:
  std::atomic<bool>* flag_;
  int epoch_;
};

TEST(ShardedEpochJournal, KillResumeBitIdentityAcrossThreadCounts) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  const std::string journal = "sharded_epoch_journal_test.bin";

  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 10;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;

  SimConfig base;
  base.hours = 10;
  base.ladder.enabled = true;
  base.audit.enabled = true;
  {
    FaultScheduleConfig fc;
    fc.hours = base.hours;
    fc.switch_mtbf = 8.0;
    fc.switch_mttr = 2.0;
    fc.seed = 99;
    base.faults = generate_fault_schedule(topo, fc);
  }

  auto make_sharded = [&](int threads, bool with_journal) {
    ShardedStreamingConfig cfg;
    cfg.enabled = true;
    cfg.threads = threads;
    cfg.churn = churn;
    cfg.resolve_churn_fraction = 0.25;
    cfg.max_staleness = 3;
    cfg.quarantine_sla = 1.0;
    if (with_journal) cfg.epoch_journal = journal;
    return cfg;
  };
  auto make_workload = [&]() {
    return StreamingWorkload(topo, workload_config(150), churn, Rng(77));
  };

  remove_epoch_journal(journal);

  // Reference: one uninterrupted run. Kill at the end of `kill_epoch`,
  // then resume from the journal — at a different thread count than the
  // killed run — and require the resumed trace bit-identical to the
  // uninterrupted reference. `inspect` sees the journal the kill left.
  auto check = [&](const SimConfig& sim, auto make_policy, int kill_epoch,
                   auto inspect) {
    auto uninterrupted = [&](int threads) {
      const std::unique_ptr<MigrationPolicy> proto = make_policy();
      StreamingWorkload w = make_workload();
      return run_sharded_simulation(apsp, map, w, 5, sim,
                                    make_sharded(threads, false), *proto);
    };
    const SimTrace reference = uninterrupted(1);
    expect_equal_traces(reference, uninterrupted(4));

    auto kill_and_resume = [&](int kill_threads, int resume_threads) {
      remove_epoch_journal(journal);
      {
        std::atomic<bool> cancel{false};
        CancelAtEpoch canceller(&cancel, kill_epoch);
        SimConfig interrupted = sim;
        interrupted.cancel = &cancel;
        StreamingWorkload w = make_workload();
        const std::unique_ptr<MigrationPolicy> proto = make_policy();
        EXPECT_THROW(
            run_sharded_simulation(apsp, map, w, 5, interrupted,
                                   make_sharded(kill_threads, true), *proto,
                                   &canceller),
            SimInterrupted);
      }
      EpochJournalState killed;
      ASSERT_TRUE(read_epoch_journal(journal, killed));
      inspect(killed);
      StreamingWorkload w = make_workload();
      const std::unique_ptr<MigrationPolicy> proto = make_policy();
      const SimTrace resumed = run_sharded_simulation(
          apsp, map, w, 5, sim, make_sharded(resume_threads, true), *proto);
      expect_equal_traces(resumed, reference);
    };
    kill_and_resume(1, 4);
    kill_and_resume(4, 1);
    remove_epoch_journal(journal);
  };

  check(
      base,
      [] { return std::make_unique<ParetoMigrationPolicy>(1e3); }, 4,
      [](const EpochJournalState&) {});

  // A drain of pod 1 over epochs 2-3 forces shard 1 to re-solve at epoch
  // 2, where its policy throws (kFull -> kRefreshOnly), and quarantines
  // all its flows at epoch 3 (-> kFrozen). Killed there, the journal
  // holds the shard frozen, so the resumed run charges the stale estimate
  // on the healed fabric before the restored model ever recombines.
  SimConfig drained;
  drained.hours = 8;
  drained.ladder.enabled = true;
  drained.audit.enabled = true;
  {
    FaultScheduleConfig fc;
    fc.hours = drained.hours;
    fc.maintenance = {{map.names[1], Hour{2}, Hour{4}}};
    drained.faults = generate_fault_schedule(topo, fc);
  }
  check(
      drained, [] { return std::make_unique<SelectiveThrowPolicy>(2); }, 3,
      [](const EpochJournalState& st) {
        ASSERT_EQ(st.shards.size(), 4u);
        EXPECT_EQ(st.shards[1].loop.rung, DegradationRung::kFrozen);
      });
}

/// Hashes every EpochObserver callback in arrival order: its name, hour,
/// shard and arguments (every EpochDecision field at on_epoch_end).
class EventSequenceHash final : public EpochObserver {
 public:
  void on_run_begin(Hour horizon, const Placement& initial) override {
    event("run_begin", horizon).u64(initial.size());
    for (const NodeId v : initial) h_.i64(v);
  }
  void on_epoch_begin(Hour hour) override { event("epoch_begin", hour); }
  void on_faults(Hour hour, const EpochFaults& e) override {
    event("faults", hour).i64(e.switch_failures).i64(e.link_failures);
    h_.i64(e.repairs).b(e.topology_changed);
  }
  void on_quarantine(Hour hour, int flows, double unserved,
                     double penalty) override {
    event("quarantine", hour).i64(flows).f64(unserved).f64(penalty);
  }
  void on_blackout(Hour hour) override { event("blackout", hour); }
  void on_recovery(Hour hour, int migrations, double cost) override {
    event("recovery", hour).i64(migrations).f64(cost);
  }
  void on_budget_truncation(Hour hour, int truncated) override {
    event("budget_truncation", hour).i64(truncated);
  }
  void on_ladder_transition(Hour hour, DegradationRung from,
                            DegradationRung to,
                            const std::string& reason) override {
    event("ladder_transition", hour).i64(static_cast<int>(from));
    h_.i64(static_cast<int>(to)).str(reason);
  }
  void on_shard_batch(Hour hour, int resolved, int held,
                      int churned) override {
    event("shard_batch", hour).i64(resolved).i64(held).i64(churned);
  }
  void on_shard_ladder_transition(Hour hour, int shard,
                                  const std::string& name,
                                  DegradationRung from, DegradationRung to,
                                  const std::string& reason) override {
    event("shard_ladder_transition", hour).i64(shard).str(name);
    h_.i64(static_cast<int>(from)).i64(static_cast<int>(to)).str(reason);
  }
  void on_shard_quarantine(Hour hour, int shard, const std::string& name,
                           int fail_streak, int required_clean) override {
    event("shard_quarantine", hour).i64(shard).str(name).i64(fail_streak);
    h_.i64(required_clean);
  }
  void on_shard_retry(Hour hour, int shard, const std::string& name,
                      bool healed) override {
    event("shard_retry", hour).i64(shard).str(name).b(healed);
  }
  void on_epoch_end(Hour hour, const EpochDecision& d) override {
    event("epoch_end", hour);
    h_.f64(d.comm_cost).f64(d.migration_cost).f64(d.migration_distance);
    h_.i64(d.vnf_migrations).i64(d.vm_migrations).u64(d.moved_flows.size());
    for (const FlowId f : d.moved_flows) h_.i64(f.value());
    h_.i64(d.truncated_solves).i64(d.switch_failures).i64(d.link_failures);
    h_.i64(d.repairs).i64(d.recovery_migrations).f64(d.recovery_cost);
    h_.i64(d.quarantined_flows).f64(d.quarantine_penalty).b(d.service_down);
    h_.i64(static_cast<int>(d.rung)).b(d.policy_failed);
    h_.i64(d.resolved_shards).i64(d.held_shards).i64(d.quarantined_shards);
    h_.i64(d.shard_retries).f64(d.shard_penalty);
  }
  void on_run_end() override { event("run_end", Hour{-1}); }
  void on_interrupted(Hour hour) override { event("interrupted", hour); }

  std::uint64_t value() const { return h_.value(); }
  /// Callbacks seen, by name.
  int count(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  Hash64& event(const std::string& name, Hour hour) {
    ++counts_[name];
    return h_.str(name).i64(hour.value());
  }

  Hash64 h_;
  std::map<std::string, int> counts_;
};

// The order and arguments of every observer callback of a pod-sharded
// run with churn, faults, the ladder with one throwing shard, the audit
// and an epoch journal are pinned: set-up ends at on_run_begin and every
// epoch phase emits at a fixed point, at any thread count.
TEST(ShardedEventSequence, ObserverCallbacksArePinned) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  const std::string journal = "sharded_event_sequence_test.bin";

  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 10;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;

  SimConfig sim;
  sim.hours = 16;
  sim.ladder.enabled = true;
  sim.audit.enabled = true;
  sim.fault.mu = 2.0;
  sim.fault.quarantine_penalty = 0.5;
  {
    FaultScheduleConfig fc;
    fc.hours = sim.hours;
    fc.switch_mtbf = 8.0;
    fc.switch_mttr = 2.0;
    fc.link_mtbf = 10.0;
    fc.seed = 99;
    sim.faults = generate_fault_schedule(topo, fc);
  }

  auto run = [&](int threads) {
    ShardedStreamingConfig cfg;
    cfg.enabled = true;
    cfg.threads = threads;
    cfg.churn = churn;
    cfg.resolve_churn_fraction = 0.25;
    cfg.max_staleness = 3;
    cfg.quarantine_sla = 1.0;
    cfg.epoch_journal = journal;
    remove_epoch_journal(journal);
    StreamingWorkload w(topo, workload_config(150), churn, Rng(77));
    SelectiveThrowPolicy proto(2);  // shard 1 throws on every attempt
    EventSequenceHash events;
    run_sharded_simulation(apsp, map, w, 5, sim, cfg, proto, &events);
    remove_epoch_journal(journal);
    return events;
  };

  const EventSequenceHash serial = run(1);
  for (const char* name :
       {"faults", "quarantine", "recovery", "shard_batch",
        "shard_ladder_transition", "shard_quarantine", "shard_retry"}) {
    EXPECT_GT(serial.count(name), 0) << name;
  }
  EXPECT_EQ(serial.count("epoch_begin"), sim.hours);
  EXPECT_EQ(serial.count("epoch_end"), sim.hours);
  EXPECT_EQ(serial.count("run_end"), 1);
  EXPECT_EQ(run(4).value(), serial.value());
  constexpr std::uint64_t kPinned = 0x662468e23c281e22ULL;
  EXPECT_EQ(serial.value(), kPinned)
      << "pin: 0x" << std::hex << serial.value() << "ULL";
}

TEST(ShardedEquivalence, ExperimentRunnerThreadInvariant) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);

  auto make = [&](int sim_threads, int shard_threads) {
    ExperimentConfig cfg;
    cfg.trials = 3;
    cfg.seed = 77;
    cfg.workload = workload_config(100);
    cfg.sfc_length = 5;
    cfg.sim.hours = 6;
    cfg.threads = sim_threads;
    cfg.sharded.enabled = true;
    cfg.sharded.threads = shard_threads;
    cfg.sharded.churn.arrivals_per_epoch = 10;
    cfg.sharded.churn.departure_prob = 0.05;
    cfg.sharded.churn.rerate_prob = 0.1;
    cfg.sharded.resolve_churn_fraction = 0.2;
    cfg.sharded.max_staleness = 3;
    return cfg;
  };

  ParetoMigrationPolicy pareto(1e3);
  NoMigrationPolicy none;
  const std::vector<const MigrationPolicy*> policies{&pareto, &none};

  const auto serial = run_experiment(topo, apsp, make(1, 1), policies);
  const auto parallel = run_experiment(topo, apsp, make(2, 4), policies);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    EXPECT_EQ(serial[p].name, parallel[p].name);
    EXPECT_EQ(serial[p].total_cost.mean, parallel[p].total_cost.mean);
    EXPECT_EQ(serial[p].comm_cost.mean, parallel[p].comm_cost.mean);
    EXPECT_EQ(serial[p].migration_cost.mean, parallel[p].migration_cost.mean);
    EXPECT_EQ(serial[p].vnf_migrations.mean, parallel[p].vnf_migrations.mean);
    EXPECT_EQ(serial[p].shard_resolves.mean, parallel[p].shard_resolves.mean);
    EXPECT_EQ(serial[p].shard_holds.mean, parallel[p].shard_holds.mean);
    ASSERT_EQ(serial[p].hourly_cost.size(), parallel[p].hourly_cost.size());
    for (std::size_t h = 0; h < serial[p].hourly_cost.size(); ++h) {
      EXPECT_EQ(serial[p].hourly_cost[h].mean,
                parallel[p].hourly_cost[h].mean);
    }
    // The sharded streaming runner actually held shards under the 0.2
    // churn threshold (the feature is on, not silently bypassed).
    EXPECT_GT(serial[p].shard_resolves.mean, 0.0);
  }
}

}  // namespace
}  // namespace ppdc
