// Custom per-flow rate schedules (SimConfig::rate_schedule) in the epoch
// loop: a pod-sharded scheduled run passes the invariant audit and is
// bit-identical at 1 and 4 worker threads; a flow with no base rate but a
// scheduled rate is quarantined when a fault cuts it off, while the slot
// of a departed streaming flow is vacant and never quarantined; and an
// epoch journal written by a scheduled run never resumes an unscheduled
// one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sharded_cost_model.hpp"
#include "engine_golden.hpp"
#include "fault/fault.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/sharded.hpp"
#include "topology/fat_tree.hpp"
#include "workload/streaming.hpp"
#include "workload/traffic.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

VmPlacementConfig workload_config(int pairs) {
  VmPlacementConfig cfg;
  cfg.num_pairs = pairs;
  cfg.intra_rack_fraction = 0.8;
  cfg.rack_zipf_s = 2.2;
  return cfg;
}

/// Rates that drift per flow and hour, with every seventh flow-hour idle.
std::vector<double> drifting_rates(const std::vector<double>& base,
                                   Hour hour) {
  std::vector<double> r(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const int phase = (static_cast<int>(i) + 2 * hour.value()) % 7;
    r[i] = base[i] * 0.5 * phase;
  }
  return r;
}

FaultSchedule pod0_drain(const Topology& topo, int hours, Hour from,
                         Hour until) {
  FaultScheduleConfig fc;
  fc.hours = hours;
  fc.maintenance = {{"pod0", from, until}};
  return generate_fault_schedule(topo, fc);
}

TEST(RateSchedule, PodShardedRunPassesAuditAndIsThreadInvariant) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  ASSERT_GT(map.num_shards(), 1);

  SimConfig sim;
  sim.hours = 10;
  sim.ladder.enabled = true;
  sim.audit.enabled = true;
  sim.fault.quarantine_penalty = 1.5;
  sim.faults = pod0_drain(topo, sim.hours, Hour{3}, Hour{6});

  auto run = [&](int threads) {
    StreamingWorkload workload(topo, workload_config(120),
                               StreamingChurnConfig{}, Rng(17));
    const std::vector<double> base = rates_of(workload.flows());
    SimConfig cfg = sim;
    cfg.rate_schedule = [base](Hour hour) {
      return drifting_rates(base, hour);
    };
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.threads = threads;
    ParetoMigrationPolicy proto(50.0);
    return run_sharded_simulation(apsp, map, workload, 4, cfg, sharded,
                                  proto);
  };

  const SimTrace serial = run(1);
  const SimTrace parallel = run(4);
  EXPECT_EQ(serial.audited_epochs, sim.hours);
  EXPECT_GT(serial.quarantined_flow_epochs, 0);
  EXPECT_EQ(golden::trace_hash(serial), golden::trace_hash(parallel));

  // The schedule, not the diurnal model, drives the rates.
  StreamingWorkload workload(topo, workload_config(120),
                             StreamingChurnConfig{}, Rng(17));
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  ParetoMigrationPolicy proto(50.0);
  const SimTrace diurnal =
      run_sharded_simulation(apsp, map, workload, 4, sim, sharded, proto);
  EXPECT_NE(diurnal.total_comm_cost, serial.total_comm_cost);
}

TEST(RateSchedule, ZeroBaseFlowCutOffByAFaultIsQuarantined) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap pods = ShardMap::by_ingress_pod(topo);
  ASSERT_EQ(pods.names[0], "pod0");
  // Flow 0 stays in pod 1; flow 1 has no base rate, lives in pod 0 and
  // only carries traffic through the schedule.
  std::vector<NodeId> pod_hosts[2];
  for (const NodeId h : topo.graph.hosts()) {
    const int s = pods.shard_of(h);
    if (s < 2) pod_hosts[s].push_back(h);
  }
  const std::vector<VmFlow> flows{
      {pod_hosts[1][0], pod_hosts[1][1], 10.0, 0},
      {pod_hosts[0][0], pod_hosts[0][1], 0.0, 0}};

  SimConfig cfg;
  cfg.hours = 6;
  cfg.audit.enabled = true;
  cfg.fault.quarantine_penalty = 2.0;
  cfg.faults = pod0_drain(topo, cfg.hours, Hour{2}, Hour{4});
  cfg.rate_schedule = [](Hour) { return std::vector<double>{10.0, 5.0}; };

  NoMigrationPolicy policy;
  const SimTrace t = run_simulation(apsp, flows, 3, cfg, policy);
  EXPECT_EQ(t.audited_epochs, cfg.hours);
  int drained = 0;
  for (const EpochDecision& d : t.epochs) {
    if (d.quarantined_flows == 0) continue;
    ++drained;
    EXPECT_EQ(d.quarantined_flows, 1);
    EXPECT_EQ(d.quarantine_penalty, 2.0 * 5.0);
  }
  EXPECT_GT(drained, 0);
}

TEST(RateSchedule, DepartedFlowsCutOffByAFaultAreNotQuarantined) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);

  SimConfig cfg;
  cfg.hours = 6;
  cfg.audit.enabled = true;
  cfg.fault.quarantine_penalty = 2.0;
  cfg.faults = pod0_drain(topo, cfg.hours, Hour{2}, Hour{4});

  auto run = [&](double departure_prob) {
    StreamingChurnConfig churn;
    churn.departure_prob = departure_prob;
    StreamingWorkload workload(topo, workload_config(120), churn, Rng(23));
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    sharded.churn = churn;
    ParetoMigrationPolicy proto(50.0);
    return run_sharded_simulation(apsp, map, workload, 4, cfg, sharded,
                                  proto);
  };

  // Without churn the drain cuts live flows off ...
  const SimTrace fixed = run(0.0);
  EXPECT_GT(fixed.quarantined_flow_epochs, 0);
  // ... but once every flow has departed (hour 1), the drained pod holds
  // only vacant slots.
  const SimTrace emptied = run(1.0);
  EXPECT_EQ(emptied.audited_epochs, cfg.hours);
  EXPECT_EQ(emptied.quarantined_flow_epochs, 0);
  EXPECT_EQ(emptied.total_quarantine_penalty, 0.0);
}

TEST(RateSchedule, JournalOfAScheduledRunDoesNotResumeAnUnscheduledOne) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const ShardMap map = ShardMap::by_ingress_pod(topo);
  const std::string path =
      ::testing::TempDir() + "ppdc_rate_schedule_journal.ejl";
  remove_epoch_journal(path);

  SimConfig unscheduled;
  unscheduled.hours = 6;
  ParetoMigrationPolicy proto(50.0);
  auto run = [&](const SimConfig& sim, bool with_journal) {
    StreamingWorkload workload(topo, workload_config(60),
                               StreamingChurnConfig{}, Rng(3));
    ShardedStreamingConfig sharded;
    sharded.enabled = true;
    if (with_journal) sharded.epoch_journal = path;
    return run_sharded_simulation(apsp, map, workload, 3, sim, sharded,
                                  proto);
  };
  const SimTrace reference = run(unscheduled, false);

  // A scheduled run leaves its journal behind (the bare loop never
  // deletes it); the unscheduled run must warn and start fresh.
  SimConfig scheduled = unscheduled;
  {
    StreamingWorkload probe(topo, workload_config(60),
                            StreamingChurnConfig{}, Rng(3));
    scheduled.rate_schedule = [base = rates_of(probe.flows())](Hour hour) {
      return drifting_rates(base, hour);
    };
  }
  const SimTrace scheduled_trace = run(scheduled, true);
  EXPECT_NE(golden::trace_hash(scheduled_trace), golden::trace_hash(reference));

  ::testing::internal::CaptureStderr();
  const SimTrace fresh = run(unscheduled, true);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("written by a different sharded run"), std::string::npos)
      << err;
  EXPECT_EQ(golden::trace_hash(fresh), golden::trace_hash(reference));
  remove_epoch_journal(path);
}

}  // namespace
}  // namespace ppdc
