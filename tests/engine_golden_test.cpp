// Golden traces of run_simulation (tests/engine_golden.hpp): every
// policy family, the ladder, VM relocation, custom rate schedules, the
// downtime model and the invariant audit (also over VM relocation), each
// on a pristine and a faulted k=4 fat-tree and on a faulted k=8 fat-tree.
// Each run's trace hash must equal its pinned value; a mismatch prints the
// line to pin. A cancel raised inside a solve ends the run between epochs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/vm_migration.hpp"
#include "core/chain_search.hpp"
#include "engine_golden.hpp"
#include "graph/apsp.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "topology/fat_tree.hpp"
#include "workload/traffic.hpp"

namespace ppdc {
namespace {

/// Succeeds on its first epoch, then vandalizes the placement and throws
/// on every later call (the ladder must contain it).
class FlakyPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "Flaky"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<FlakyPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    if (++calls_ >= 2) {
      state.placement.back() = state.placement.front();
      throw PpdcError("flaky policy exploded on purpose");
    }
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    return d;
  }

 private:
  int calls_ = 0;
};

/// Raises the cancel flag from inside its `at`-th solve, the way a
/// signal handler may fire while a policy is running.
class CancellingPolicy final : public MigrationPolicy {
 public:
  CancellingPolicy(std::atomic<bool>* cancel, int at)
      : cancel_(cancel), at_(at) {}
  std::string name() const override { return "Cancelling"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<CancellingPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    if (++calls_ == at_) cancel_->store(true);
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    return d;
  }

 private:
  std::atomic<bool>* cancel_;
  int at_;
  int calls_ = 0;
};

/// Records the epoch-boundary events as "begin H" / "end H" /
/// "interrupted H".
class BoundaryLog final : public EpochObserver {
 public:
  void on_epoch_begin(Hour hour) override { add("begin", hour); }
  void on_epoch_end(Hour hour, const EpochDecision&) override {
    add("end", hour);
  }
  void on_interrupted(Hour hour) override { add("interrupted", hour); }
  std::vector<std::string> events;

 private:
  void add(const char* what, Hour hour) {
    events.push_back(std::string(what) + " " + std::to_string(hour.value()));
  }
};

/// Per-flow rates that move every hour independently of the diurnal
/// groups; every fifth flow-hour carries no traffic at all.
std::vector<double> scheduled_rates(const std::vector<double>& base,
                                    Hour hour) {
  std::vector<double> r(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const int phase = (static_cast<int>(i) * 7 + hour.value() * 3) % 5;
    r[i] = base[i] * 0.25 * phase;
  }
  return r;
}

struct Scenario {
  const char* name;
  /// Adjusts the fabric's base config and returns the policy to run.
  std::function<std::unique_ptr<MigrationPolicy>(
      const golden::Fabric&, const std::vector<VmFlow>&, SimConfig&)>
      setup;
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      {"NoMigration",
       [](const golden::Fabric&, const std::vector<VmFlow>&, SimConfig&) {
         return std::make_unique<NoMigrationPolicy>();
       }},
      {"mPareto",
       [](const golden::Fabric& f, const std::vector<VmFlow>&, SimConfig&) {
         return std::make_unique<ParetoMigrationPolicy>(f.mu());
       }},
      {"Resolve",
       [](const golden::Fabric& f, const std::vector<VmFlow>&, SimConfig&) {
         return std::make_unique<ResolvePlacementPolicy>(f.mu());
       }},
      {"Optimal-budget1-ladder",
       [](const golden::Fabric& f, const std::vector<VmFlow>&,
          SimConfig& cfg) {
         cfg.ladder.enabled = true;
         ChainSearchConfig tiny;
         tiny.node_budget = 1;
         return std::make_unique<ExhaustiveMigrationPolicy>(f.mu(), tiny);
       }},
      {"PLAN",
       [](const golden::Fabric&, const std::vector<VmFlow>&, SimConfig&) {
         VmMigrationConfig vm;
         vm.mu = 1.0;
         return std::make_unique<PlanPolicy>(vm);
       }},
      {"MCF-capacity4",
       [](const golden::Fabric&, const std::vector<VmFlow>&, SimConfig&) {
         VmMigrationConfig vm;
         vm.mu = 1.0;
         vm.host_capacity = 4;
         return std::make_unique<McfPolicy>(vm);
       }},
      {"mPareto-rate-schedule",
       [](const golden::Fabric& f, const std::vector<VmFlow>& flows,
          SimConfig& cfg) {
         cfg.rate_schedule = [base = rates_of(flows)](Hour hour) {
           return scheduled_rates(base, hour);
         };
         return std::make_unique<ParetoMigrationPolicy>(f.mu());
       }},
      {"mPareto-downtime",
       [](const golden::Fabric& f, const std::vector<VmFlow>&,
          SimConfig& cfg) {
         cfg.downtime_factor = 0.5;
         return std::make_unique<ParetoMigrationPolicy>(f.mu());
       }},
      {"Resolve-audit",
       [](const golden::Fabric& f, const std::vector<VmFlow>&,
          SimConfig& cfg) {
         cfg.audit.enabled = true;
         cfg.fault.quarantine_penalty = 2.0;
         return std::make_unique<ResolvePlacementPolicy>(f.mu());
       }},
      {"PLAN-audit",
       [](const golden::Fabric&, const std::vector<VmFlow>&, SimConfig& cfg) {
         cfg.audit.enabled = true;
         VmMigrationConfig vm;
         vm.mu = 1.0;
         return std::make_unique<PlanPolicy>(vm);
       }},
      {"Flaky-ladder",
       [](const golden::Fabric&, const std::vector<VmFlow>&, SimConfig& cfg) {
         cfg.ladder.enabled = true;
         return std::make_unique<FlakyPolicy>();
       }},
  };
  return all;
}

void check_fabric(const golden::Fabric& fabric) {
  const Topology topo = build_fat_tree(fabric.k);
  const AllPairs apsp(topo.graph);
  const std::vector<VmFlow> flows = golden::fabric_flows(topo);
  std::string repin;
  for (const Scenario& s : scenarios()) {
    SimConfig cfg;
    cfg.hours = golden::kHours;
    cfg.faults = golden::fabric_faults(topo, fabric);
    const std::unique_ptr<MigrationPolicy> policy =
        s.setup(fabric, flows, cfg);
    const SimTrace trace =
        run_simulation(apsp, flows, golden::kSfcLength, cfg, *policy);
    ASSERT_EQ(trace.epochs.size(), static_cast<std::size_t>(cfg.hours));
    if (cfg.audit.enabled) {
      EXPECT_EQ(trace.audited_epochs, cfg.hours);
    }

    const std::string name = fabric.name() + "/" + s.name;
    const std::uint64_t got = golden::trace_hash(trace);
    const std::uint64_t want = golden::pinned(name);
    if (got != want) {
      char line[128];
      std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n",
                    name.c_str(), static_cast<unsigned long long>(got));
      repin += line;
    }
    EXPECT_EQ(got, want) << name;
  }
  if (!repin.empty()) ADD_FAILURE() << "hashes off their pins:\n" << repin;
}

TEST(EngineGolden, K4Pristine) { check_fabric(golden::kFabrics[0]); }
TEST(EngineGolden, K4Faulted) { check_fabric(golden::kFabrics[1]); }
TEST(EngineGolden, K8Faulted) { check_fabric(golden::kFabrics[2]); }

TEST(EngineGolden, CancelDuringASolveFinishesTheEpoch) {
  const Topology topo = build_fat_tree(4);
  const AllPairs apsp(topo.graph);
  const std::vector<VmFlow> flows = golden::fabric_flows(topo);
  std::atomic<bool> cancel{false};
  SimConfig cfg;
  cfg.hours = 6;
  cfg.cancel = &cancel;
  CancellingPolicy policy(&cancel, 2);
  BoundaryLog log;
  EXPECT_THROW(
      run_simulation(apsp, flows, golden::kSfcLength, cfg, policy, &log),
      SimInterrupted);
  // The epoch the flag went up in still ends; the run stops before the
  // next one begins.
  ASSERT_GE(log.events.size(), 3u);
  const std::size_t n = log.events.size();
  const std::vector<std::string> tail(log.events.begin() + (n - 3),
                                      log.events.end());
  const std::vector<std::string> want = {"begin 2", "end 2", "interrupted 3"};
  EXPECT_EQ(tail, want);
}

}  // namespace
}  // namespace ppdc
