#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/chain_search.hpp"
#include "core/cost_model.hpp"
#include "core/placement_dp.hpp"
#include "fault/degraded.hpp"
#include "fault/fault.hpp"
#include "graph/apsp.hpp"
#include "graph/graph.hpp"
#include "sim/audit.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "util/checksum.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "util/shard_pool.hpp"
#include "workload/diurnal.hpp"
#include "workload/traffic.hpp"

namespace ppdc {

namespace {

/// Persistent per-shard runtime state across epochs: the journaled loop
/// state plus the degraded-fabric model, which a resume rebuilds lazily.
struct ShardRun : ShardLoopState {
  std::unique_ptr<CostModel> degraded_model;
};

/// One shard's contribution to one epoch, merged in fixed shard order.
struct ShardEpochResult {
  EpochDecision d;
  int quarantined = 0;
  double unserved = 0.0;
  double served_rate = 0.0;  ///< Σ served rates (quarantine-SLA base)
  int recovery_migrations = 0;
  double recovery_cost = 0.0;
  int recovery_truncations = 0;
  bool resolved = false;
  bool held = false;
  bool frozen = false;   ///< executed at kFrozen (stale charge, audit-exempt)
  bool retried = false;  ///< re-solve attempt of a failure-quarantined shard
};

/// One live policy instance per shard, in shard order (not prototypes).
// ppdc-lint: allow(policy-prototype-const live per-shard instances)
using ShardPolicies = std::vector<MigrationPolicy*>;

/// What the phases of one epoch hand each other.
struct Epoch {
  Hour hour = Hour::invalid();
  int churn = 0;
  EpochFaults events;
  bool faults_active = false;
  bool blackout = false;  ///< the serving core cannot host the chain
  std::vector<double> scales;
  std::vector<ShardEpochResult> results;  ///< one per shard
  EpochDecision merged;
  std::uint32_t ladder_steps = 0;
};

/// Clean epochs a shard must string together before climbing one rung:
/// `recovery_epochs` after the first failure and after every non-throw
/// trip. Repeat failures back off exponentially (capped) with a seeded
/// jitter, so repeatedly-failing shards across a pod-sharded run do not
/// retry in lockstep.
int required_clean_epochs(int shard, int fail_streak, int recovery_epochs) {
  if (fail_streak <= 1) return recovery_epochs;
  const int backoff = (1 << std::min(fail_streak - 1, 4)) - 1;
  const int jitter = static_cast<int>(
      Hash64().i64(shard).i64(fail_streak).value() %
      static_cast<std::uint64_t>(fail_streak));
  return recovery_epochs + backoff + jitter;
}

void validate_run(const ShardMap& map, const StreamingWorkload& workload,
                  const SimConfig& config,
                  const ShardedStreamingConfig& sharded) {
  PPDC_REQUIRE(!workload.flows().empty(),
               "simulation needs at least one flow");
  PPDC_REQUIRE(config.hours >= 1, "simulation needs at least one hour");
  PPDC_REQUIRE(config.fault.mu >= 0.0,
               "negative recovery migration coefficient");
  PPDC_REQUIRE(config.fault.quarantine_penalty >= 0.0,
               "negative quarantine penalty");
  PPDC_REQUIRE(config.ladder.max_quarantined_fraction >= 0.0 &&
                   config.ladder.max_quarantined_fraction <= 1.0,
               "ladder quarantine trip must be a fraction in [0,1]");
  PPDC_REQUIRE(config.ladder.trip_truncations >= 0,
               "negative ladder truncation trip");
  PPDC_REQUIRE(config.ladder.recovery_epochs >= 1,
               "ladder recovery needs at least one clean epoch");
  PPDC_REQUIRE(config.audit.rel_tol >= 0.0 && config.audit.abs_tol >= 0.0,
               "negative audit tolerance");
  PPDC_REQUIRE(sharded.resolve_churn_fraction >= 0.0 &&
                   sharded.resolve_churn_fraction <= 1.0,
               "resolve_churn_fraction outside [0,1]");
  PPDC_REQUIRE(sharded.max_staleness >= 1,
               "bounded staleness needs max_staleness >= 1");
  PPDC_REQUIRE(sharded.quarantine_sla >= 0.0,
               "negative shard quarantine SLA penalty");
  PPDC_REQUIRE(sharded.epoch_checkpoint_every >= 1,
               "epoch checkpoint cadence must be >= 1");
  PPDC_REQUIRE(config.faults.empty() || config.faults.front().epoch >= Hour{1},
               "fault events must start at epoch 1 (the initial placement "
               "sees the pristine fabric)");
  PPDC_REQUIRE(map.num_shards() >= 1, "shard map has no shards");
}

/// Global diurnal group domain: every shard's scale vector has this
/// length. Streaming arrivals draw from the same generator as the initial
/// population and may introduce either coast, so a churning run widens
/// the domain to at least the two-coast model even when the initial draw
/// happened to be single-group.
int group_domain(const StreamingWorkload& workload) {
  const StreamingChurnConfig& churn = workload.churn_config();
  const bool streaming = churn.arrivals_per_epoch > 0 ||
                         churn.departure_prob > 0.0 ||
                         churn.rerate_prob > 0.0;
  const int n_groups = num_groups(groups_of(workload.flows()));
  return streaming ? std::max(n_groups, 2) : n_groups;
}

/// The epoch loop (DESIGN.md §14): set-up ends at on_run_begin, then
/// run_epoch runs each epoch's named phases in order. Callers validate
/// the run and brace-initialise the inputs; every other member derives
/// from them.
struct EpochEngine {
  const AllPairs& apsp;
  const ShardMap& map;
  StreamingWorkload& workload;
  const int n;
  const SimConfig& config;
  const ShardedStreamingConfig& sharded;
  const ShardPolicies& policies;  ///< one per shard, in shard order
  EpochObserver* observer;

  const std::string policy_name = policies.front()->name();
  const int num_shards = map.num_shards();
  std::optional<FaultInjector> injector =
      config.faults.empty() ? std::nullopt
                            : std::make_optional<FaultInjector>(
                                  apsp.graph(), config.faults);
  const int n_groups = group_domain(workload);
  /// Worker threads of the shard pool (shard-model build, hour-0 solve
  /// and the per-shard epoch).
  const int pool =
      std::min(resolve_experiment_threads(sharded.threads), num_shards);
  ShardedCostModel shards{apsp, map, workload.flows(), n_groups, pool};
  /// A custom rate schedule replaces the diurnal model: it is called once
  /// per hour for the global per-flow rates, each shard takes its slice
  /// through its global ids, and every cost refresh is a full rescan (the
  /// rates need not decompose into base x group scale).
  const bool scheduled = static_cast<bool>(config.rate_schedule);
  std::vector<double> schedule_rates{};  ///< global rates of schedule_hour
  Hour schedule_hour = Hour::invalid();
  /// The resumed journal prefix, or this run's own journal.
  EpochJournalState journal{};
  std::vector<ShardRun> runs = std::vector<ShardRun>(policies.size());
  std::unique_ptr<InvariantAuditor> auditor{};
  TraceRecorder recorder{};
  /// The shared degraded view, read-only during the per-shard epoch.
  std::unique_ptr<DegradedNetwork> degraded{};

  SimTrace run() {
    const bool resumed = resume_from_journal();
    if (!resumed) solve_hour_zero();
    // Runtime invariant auditing (sim/audit.hpp, DESIGN.md §15): one
    // per-run checker that re-derives every shard's epoch from scratch.
    if (config.audit.enabled) {
      auditor = std::make_unique<InvariantAuditor>(config.audit,
                                                   policy_name, map.names);
    }
    emit([&](EpochObserver& o) {
      o.on_run_begin(Hour{config.hours}, journal.merged_initial);
    });
    const int start_epoch = static_cast<int>(journal.epochs.size());
    if (resumed) replay_journal();
    for (const Hour hour : id_range(Hour{start_epoch}, Hour{config.hours})) {
      run_epoch(hour);
    }
    emit([&](EpochObserver& o) { o.on_run_end(); });
    SimTrace trace = recorder.take();
    if (auditor) {
      trace.audited_epochs = auditor->checked_epochs();
      auditor->check_run(trace);
    }
    return trace;
  }

  /// Epoch journal (DESIGN.md §15): when configured, resumes a previous
  /// incarnation of this exact run. The fingerprint is computed over the
  /// *entry* state — the workload before any epoch ran — plus every
  /// result-shaping knob, so a journal from a different trial, policy, or
  /// configuration warns and is ignored instead of resuming garbage.
  ///
  /// A resume restores everything mutable from the journal's state frame.
  /// The shard cost models are rebuilt over the restored flow vectors
  /// from their group state verbatim — the base vectors carry exact float
  /// patch history, which is what makes the resumed trace bit-identical.
  /// The policies are fresh instances: the placement-policy contract is
  /// stateless across epochs (each on_epoch derives everything from the
  /// model and state it is handed), so a fresh instance resumes exactly.
  bool resume_from_journal() {
    const std::string& path = sharded.epoch_journal;
    if (path.empty()) return false;
    journal.fingerprint = fingerprint_sharded_run(
        workload.snapshot(), config, sharded, n, num_shards, policy_name);
    EpochJournalState loaded;
    bool have = false;
    try {
      have = read_epoch_journal(path, loaded);
    } catch (const PpdcError& e) {
      std::cerr << "warning: " << e.what()
                << " — starting the sharded run fresh\n";
    }
    if (!have) return false;
    if (loaded.fingerprint != journal.fingerprint) {
      std::cerr << "warning: epoch journal '" << path
                << "' was written by a different sharded run — starting "
                   "fresh\n";
      return false;
    }
    if (loaded.shards.size() != static_cast<std::size_t>(num_shards) ||
        loaded.hours != static_cast<std::uint32_t>(config.hours)) {
      std::cerr << "warning: epoch journal '" << path
                << "' dimensions disagree with a matching fingerprint "
                   "(corrupt journal?) — starting fresh\n";
      return false;
    }
    journal = std::move(loaded);
    workload.restore(journal.workload);
    std::vector<ShardedCostModel::ShardSnapshot> snaps;
    snaps.reserve(journal.shards.size());
    for (const ShardResumeState& st : journal.shards) {
      snaps.push_back(st.shard);
    }
    shards.restore_shards(snaps);
    for (int s = 0; s < num_shards; ++s) {
      static_cast<ShardLoopState&>(run_of(s)) =
          journal.shards[static_cast<std::size_t>(s)].loop;
    }
    std::cerr << "note: resuming sharded run from epoch journal '"
              << sharded.epoch_journal << "': " << journal.epochs.size()
              << " of " << config.hours << " epochs already journaled\n";
    return true;
  }

  /// Hour 0: per-shard initial traffic-optimal placement (TOP, Algorithm
  /// 3) on the pristine fabric, on the shard pool.
  void solve_hour_zero() {
    const std::vector<double> scales0 =
        config.diurnal.group_scales(Hour{0}, n_groups);
    load_schedule(Hour{0});
    auto initial_solve = [&](int s) {
      ShardedCostModel::Shard& sh = shards.shard(s);
      set_rates(sh.flows, shard_rates(sh, Hour{0}));
      if (scheduled) {
        sh.model->refresh();
      } else {
        sh.model->refresh_scaled(scales0);
      }
      run_of(s).placement =
          solve_top_dp(*sh.model, n, config.initial_placement).placement;
    };
    if (const std::exception_ptr e = for_each_shard(
            num_shards, pool, initial_solve, [] { return false; })) {
      std::rethrow_exception(e);
    }
    Placement& merged = journal.merged_initial;
    merged.reserve(static_cast<std::size_t>(num_shards * n));
    for (const ShardRun& run : runs) {
      merged.insert(merged.end(), run.placement.begin(), run.placement.end());
    }
    journal.hours = static_cast<std::uint32_t>(config.hours);
  }

  /// Replays the journaled epoch prefix into the TraceRecorder only —
  /// external observers (and the auditor's stream checks) see live epochs
  /// exclusively; the auditor is told about the replay instead. Then
  /// fast-forwards the fault timeline to the resume point and rebuilds
  /// the shared degraded view. Per-shard degraded models are
  /// reconstructed lazily — ctor and refresh() are both full rescans, so
  /// a fresh model bit-equals the evolved one wherever it is observed.
  void replay_journal() {
    const int start_epoch = static_cast<int>(journal.epochs.size());
    int replayed_transitions = 0;
    for (int e = 0; e < start_epoch; ++e) {
      const EpochRecord& rec = journal.epochs[static_cast<std::size_t>(e)];
      recorder.on_epoch_end(Hour{e}, rec.decision);
      for (std::uint32_t t = 0; t < rec.ladder_steps; ++t) {
        recorder.on_ladder_transition(Hour{e}, DegradationRung::kFull,
                                      DegradationRung::kRefreshOnly,
                                      "replayed");
        ++replayed_transitions;
      }
    }
    if (auditor) {
      std::vector<DegradationRung> rungs;
      rungs.reserve(runs.size());
      for (const ShardRun& run : runs) rungs.push_back(run.rung);
      auditor->note_resumed(start_epoch, replayed_transitions, rungs);
    }
    if (injector && start_epoch >= 2) {
      (void)injector->advance_to(Hour{start_epoch - 1});
    }
    rebuild_degraded();
  }

  void run_epoch(Hour hour) {
    if (config.cancel != nullptr &&
        config.cancel->load(std::memory_order_relaxed)) {
      interrupt(hour, "before");
    }
    emit([&](EpochObserver& o) { o.on_epoch_begin(hour); });
    Epoch e;
    e.hour = hour;
    e.churn = apply_churn(hour);
    advance_faults(e);
    e.scales = config.diurnal.group_scales(hour, n_groups);
    load_schedule(hour);
    run_shards(e);
    merge(e);
    step_ladder(e);
    audit(e);
    checkpoint(e);
  }

  /// Inter-epoch churn: the workload advances once per epoch from hour 1
  /// on, and the shards mirror the churn with O(|V_s|) patches. Returns
  /// the churned-flow count.
  int apply_churn(Hour hour) {
    if (hour < Hour{1}) return 0;
    const FlowChurn churn = workload.advance();
    const int total = static_cast<int>(churn.total());
    if (total > 0) {
      const std::vector<int> touched =
          shards.apply_churn(workload.flows(), churn);
      for (int s = 0; s < num_shards; ++s) {
        run_of(s).churned += touched[static_cast<std::size_t>(s)];
      }
    }
    return total;
  }

  /// Fault events and the shared degraded view (read-only for the
  /// parallel shard phase, so it is rebuilt here on the main thread).
  void advance_faults(Epoch& e) {
    if (injector && e.hour >= Hour{1}) e.events = injector->advance_to(e.hour);
    const EpochFaults& ev = e.events;
    if (ev.switch_failures + ev.link_failures + ev.repairs > 0) {
      emit([&](EpochObserver& o) { o.on_faults(e.hour, ev); });
    }
    e.faults_active = injector && injector->any_faults_active();
    if (ev.topology_changed) rebuild_degraded();
    e.blackout = e.faults_active && !degraded->core_can_host(n);
  }

  /// Runs shard_epoch for every shard on the shard pool. Shards are
  /// independent; their results merge in fixed shard order afterwards.
  ///
  /// Cooperative cancellation is honored at *shard* boundaries: a worker
  /// stops pulling shards the moment the flag flips, so a SIGINT during a
  /// million-flow epoch responds in milliseconds instead of waiting out
  /// the epoch. The partially solved epoch is abandoned wholesale
  /// (SimInterrupted) — mutated state never escapes because a cancelled
  /// run is rerun (or journal-resumed) from a clean snapshot. A single
  /// shard has no shard boundary inside the epoch: it finishes the epoch
  /// and stops at the check before the next one.
  void run_shards(Epoch& e) {
    e.results.resize(static_cast<std::size_t>(num_shards));
    const std::atomic<bool>* cancel = num_shards > 1 ? config.cancel : nullptr;
    auto cancelled = [&]() {
      return cancel != nullptr && cancel->load(std::memory_order_relaxed);
    };
    const std::exception_ptr error = for_each_shard(
        num_shards, pool, [&](int s) { shard_epoch(s, e); }, cancelled);
    if (cancelled()) interrupt(e.hour, "inside");
    // Deterministic error surfacing: first failing shard in pod order.
    if (error) std::rethrow_exception(error);
  }

  /// Fixed-order merge: sums accumulate in shard order, so the merged
  /// decision is a pure function of shard state — identical at every
  /// thread count. The merged rung is the worst rung any shard executed
  /// at; quarantined shards (failure backoff, rung below kFull) accrue
  /// the shard-SLA penalty on their served rate.
  void merge(Epoch& e) {
    EpochDecision& d = e.merged;
    double unserved = 0.0;
    for (int s = 0; s < num_shards; ++s) {
      const ShardEpochResult& r = e.results[static_cast<std::size_t>(s)];
      const ShardRun& run = run_of(s);
      d.quarantined_flows += r.quarantined;
      unserved += r.unserved;
      d.recovery_migrations += r.recovery_migrations;
      d.recovery_cost += r.recovery_cost;
      d.comm_cost += r.d.comm_cost;
      d.migration_cost += r.d.migration_cost;
      d.migration_distance += r.d.migration_distance;
      d.vnf_migrations += r.d.vnf_migrations;
      d.vm_migrations += r.d.vm_migrations;
      const std::vector<FlowId>& global_ids = shards.shard(s).global_ids;
      for (const FlowId local : r.d.moved_flows) {
        d.moved_flows.push_back(
            global_ids[static_cast<std::size_t>(local.value())]);
      }
      d.truncated_solves += r.d.truncated_solves + r.recovery_truncations;
      d.resolved_shards += r.resolved ? 1 : 0;
      d.held_shards += r.held ? 1 : 0;
      if (r.d.policy_failed) d.policy_failed = true;
      d.rung = std::max(d.rung, run.rung);
      if (r.retried) ++d.shard_retries;
      if (run.fail_streak > 0 && run.rung != DegradationRung::kFull) {
        ++d.quarantined_shards;
        d.shard_penalty += sharded.quarantine_sla * r.served_rate;
      }
    }
    d.quarantine_penalty = config.fault.quarantine_penalty * unserved;
    if (d.quarantined_flows > 0) {
      emit([&](EpochObserver& o) {
        o.on_quarantine(e.hour, d.quarantined_flows, unserved,
                        d.quarantine_penalty);
      });
    }
    if (e.blackout) {
      d.service_down = true;
      emit([&](EpochObserver& o) { o.on_blackout(e.hour); });
    } else if (d.recovery_migrations > 0) {
      emit([&](EpochObserver& o) {
        o.on_recovery(e.hour, d.recovery_migrations, d.recovery_cost);
      });
    }
    d.switch_failures = e.events.switch_failures;
    d.link_failures = e.events.link_failures;
    d.repairs = e.events.repairs;
    if (d.truncated_solves > 0) {
      emit([&](EpochObserver& o) {
        o.on_budget_truncation(e.hour, d.truncated_solves);
      });
    }
    emit([&](EpochObserver& o) {
      o.on_shard_batch(e.hour, d.resolved_shards, d.held_shards, e.churn);
    });
    emit([&](EpochObserver& o) { o.on_epoch_end(e.hour, d); });
  }

  /// Per-shard ladder transitions, evaluated in fixed shard order after
  /// the merge (many private control loops, one deterministic event
  /// stream). Trip priority per shard: policy-throw > blackout >
  /// solve-budget > quarantine. The epoch that tripped still executed at
  /// the old rung; the new rung governs the next epoch.
  void step_ladder(Epoch& e) {
    const LadderOptions& ladder = config.ladder;
    if (!ladder.enabled) return;
    for (int s = 0; s < num_shards; ++s) {
      ShardRun& run = run_of(s);
      const ShardEpochResult& r = e.results[static_cast<std::size_t>(s)];
      if (r.retried) {
        const bool healed = !r.d.policy_failed;
        emit([&](EpochObserver& o) {
          o.on_shard_retry(e.hour, s, shard_name(s), healed);
        });
        if (healed) run.fail_streak = 0;
      }
      const char* trip = nullptr;
      if (r.d.policy_failed) {
        trip = "policy-throw";
      } else if (e.blackout) {
        trip = "blackout";
      } else if (ladder.trip_truncations > 0 &&
                 r.d.truncated_solves + r.recovery_truncations >=
                     ladder.trip_truncations) {
        trip = "solve-budget";
      } else if (static_cast<double>(r.quarantined) >
                 ladder.max_quarantined_fraction *
                     static_cast<double>(shards.shard(s).flows.size())) {
        trip = "quarantine";
      }
      if (trip != nullptr) {
        run.clean_streak = 0;
        if (r.d.policy_failed) {
          ++run.fail_streak;
          const int need = required_clean_epochs(s, run.fail_streak,
                                                 ladder.recovery_epochs);
          emit([&](EpochObserver& o) {
            o.on_shard_quarantine(e.hour, s, shard_name(s), run.fail_streak,
                                  need);
          });
        }
        if (run.rung != DegradationRung::kFrozen) step_rung(e, s, +1, trip);
      } else {
        ++run.clean_streak;
        const int need = required_clean_epochs(s, run.fail_streak,
                                               ladder.recovery_epochs);
        if (run.rung != DegradationRung::kFull && run.clean_streak >= need) {
          run.clean_streak = 0;
          step_rung(e, s, -1, "recovered");
        }
      }
    }
  }

  /// Runtime audit (after the ladder step): each shard's epoch re-derived
  /// from scratch in fixed shard order, then the merged epoch's global
  /// invariants.
  void audit(const Epoch& e) {
    if (!auditor) return;
    for (int s = 0; s < num_shards; ++s) {
      const ShardRun& run = run_of(s);
      const ShardEpochResult& r = e.results[static_cast<std::size_t>(s)];
      auditor->check_shard_epoch(
          {.epoch = e.hour,
           .shard = s,
           .name = &shard_name(s),
           .model = (e.faults_active && run.degraded_model)
                        ? run.degraded_model.get()
                        : shards.shard(s).model.get(),
           .flows = &shards.shard(s).flows,
           .placement = &run.placement,
           .charged_comm = r.d.comm_cost,
           .frozen = r.frozen,
           .service_down = e.blackout,
           .degraded = degraded.get(),
           .n = n});
    }
    auditor->check_epoch({.epoch = e.hour,
                          .shards = &shards,
                          .global_flows = &workload.flows(),
                          .decision = &e.merged,
                          .degraded = degraded.get(),
                          .injector = injector ? &*injector : nullptr});
  }

  /// Epoch journal: appends this epoch's record and, at the configured
  /// cadence, rewrites the file with a fresh resume-state frame (skipped
  /// after the final epoch — the run is complete and the caller deletes
  /// the journal once the cell lands durably upstream).
  void checkpoint(const Epoch& e) {
    if (sharded.epoch_journal.empty()) return;
    journal.epochs.push_back(EpochRecord{e.merged, e.ladder_steps});
    const int done = e.hour.value() + 1;
    if (done == config.hours || done % sharded.epoch_checkpoint_every != 0) {
      return;
    }
    journal.shards.clear();
    journal.shards.reserve(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      journal.shards.push_back(
          ShardResumeState{shards.shard_snapshot(s), run_of(s)});
    }
    journal.workload = workload.snapshot();
    write_epoch_journal(sharded.epoch_journal, journal);
  }

  /// One shard's epoch, at the shard's *own* ladder rung.
  void shard_epoch(int s, Epoch& e) {
    ShardRun& run = run_of(s);
    ShardEpochResult& r = e.results[static_cast<std::size_t>(s)];
    r.frozen = config.ladder.enabled && run.rung == DegradationRung::kFrozen;
    serve_traffic(s, e, r);
    if (e.blackout) {
      // Nothing is served and nothing is charged; the stale estimate a
      // later frozen epoch would charge is this epoch's zero.
      r.d.service_down = true;
      run.last_comm = 0.0;
      return;
    }
    CostModel& m = maintain_model(s, e, r.frozen);
    const bool stranded = recover_stranded(s, m, e, r);
    policy_or_hold(s, m, e, stranded, r);
    run.last_comm = r.d.comm_cost;
  }

  /// This epoch's traffic. Flows cut off from the serving core are
  /// quarantined: their rate is zeroed for the epoch and an SLA penalty
  /// is charged for the unserved demand. A vacant slot (a departed
  /// streaming flow, or one whose flow re-spawned in another shard) is
  /// skipped, not quarantined; a fixed population has none. Only a
  /// zero-base slot can be vacant.
  void serve_traffic(int s, const Epoch& e, ShardEpochResult& r) {
    ShardedCostModel::Shard& sh = shards.shard(s);
    std::vector<double> rates = shard_rates(sh, e.hour);
    if (e.faults_active) {
      for (std::size_t i = 0; i < sh.flows.size(); ++i) {
        const VmFlow& f = sh.flows[i];
        if (sh.base_rates[i] == 0.0) {
          const FlowId g = sh.global_ids[i];
          if (!g.valid() || workload.vacant(g)) continue;
        }
        const bool served = !e.blackout && degraded->in_core(f.src_host) &&
                            degraded->in_core(f.dst_host);
        if (!served) {
          ++r.quarantined;
          r.unserved += rates[i];
          rates[i] = 0.0;
        }
      }
    }
    set_rates(sh.flows, rates);
    for (const double rate : rates) r.served_rate += rate;
  }

  /// Cost-model maintenance: a dedicated full-rescan model over the
  /// degraded metric, restricted to the core's alive switches, while
  /// faults are active (quarantine breaks the base x scale
  /// decomposition); group recombination on the pristine diurnal path,
  /// with a lazy base resync when the fabric heals; a full rescan under a
  /// rate schedule. Returns the model the epoch is costed on.
  CostModel& maintain_model(int s, const Epoch& e, bool frozen) {
    ShardedCostModel::Shard& sh = shards.shard(s);
    ShardRun& run = run_of(s);
    if (e.faults_active) {
      if (!run.degraded_model) {
        run.degraded_model =
            std::make_unique<CostModel>(degraded->apsp(), sh.flows);
        run.degraded_model->restrict_candidates(degraded->core_switches());
      } else if (!frozen) {
        run.degraded_model->refresh();
      }
      run.resync_pending = true;
      return *run.degraded_model;
    }
    if (!frozen) {
      if (scheduled) {
        sh.model->refresh();
      } else {
        if (run.resync_pending) sh.model->refresh();
        sh.model->refresh_scaled(e.scales);
      }
      run.resync_pending = false;
    }
    return *sh.model;
  }

  /// Emergency re-placement of VNFs stranded outside the core, to the
  /// restricted fresh optimum. Recovery distance is measured on the
  /// pristine metric: the bits of a VNF stranded on a dead switch still
  /// travel that far. Returns whether any VNF was stranded.
  bool recover_stranded(int s, CostModel& m, const Epoch& e,
                        ShardEpochResult& r) {
    Placement& placement = run_of(s).placement;
    if (!e.faults_active ||
        std::all_of(placement.begin(), placement.end(),
                    [&](NodeId sw) { return degraded->in_core(sw); })) {
      return false;
    }
    Placement target = solve_top_dp(m, n, config.fault.placement).placement;
    if (config.fault.exhaustive_recovery) {
      ChainSearchConfig cc;
      cc.budget = config.fault.budget;
      cc.initial = target;
      const ChainSearchResult refined = solve_top_exhaustive(m, n, cc);
      if (!refined.proven_optimal) ++r.recovery_truncations;
      target = refined.placement;
    }
    double distance = 0.0;
    for (std::size_t j = 0; j < placement.size(); ++j) {
      if (placement[j] == target[j]) continue;
      ++r.recovery_migrations;
      distance += apsp.cost(placement[j], target[j]);
    }
    r.recovery_cost = config.fault.mu * distance;
    placement = std::move(target);
    return true;
  }

  /// Policy, or a hold. Hour 0 charges the initial placement, which is
  /// already optimal for it. Held shards (bounded staleness,
  /// kRefreshOnly) charge the exact communication cost of the kept
  /// placement on the *refreshed* model; only kFrozen charges the
  /// previous epoch's stale estimate.
  void policy_or_hold(int s, CostModel& m, const Epoch& e, bool stranded,
                      ShardEpochResult& r) {
    ShardRun& run = run_of(s);
    const bool refresh_only =
        config.ladder.enabled && run.rung == DegradationRung::kRefreshOnly;
    const bool resolve =
        !refresh_only &&
        (sharded.resolve_churn_fraction <= 0.0 || e.faults_active ||
         stranded || run.fail_streak > 0 ||
         static_cast<double>(run.churned) >=
             sharded.resolve_churn_fraction *
                 static_cast<double>(std::max(shards.shard(s).live, 1)) ||
         run.staleness >= sharded.max_staleness);
    if (e.hour == Hour{0}) {
      r.d.comm_cost = shards.shard(s).model->communication_cost(run.placement);
      r.resolved = true;
    } else if (r.frozen) {
      r.d.comm_cost = run.last_comm;
      r.held = true;
    } else if (!resolve) {
      r.d.comm_cost = m.communication_cost(run.placement);
      r.held = true;
      if (!refresh_only) ++run.staleness;
    } else {
      if (run.fail_streak > 0) r.retried = true;
      solve_policy(s, m, e, r);
      r.resolved = true;
      run.staleness = 0;
      run.churned = 0;
    }
  }

  /// Runs the shard's policy on a copy of its state and validates the
  /// answer. Failure containment: with the ladder enabled a throw is
  /// absorbed per shard — this shard holds its placement (the policy only
  /// touched the copy), gets charged the exactly refreshed cost, and the
  /// post-merge ladder step quarantines it; every other shard's epoch is
  /// untouched. Without the ladder the run aborts.
  void solve_policy(int s, CostModel& m, const Epoch& e,
                    ShardEpochResult& r) {
    ShardRun& run = run_of(s);
    EpochDecision& d = r.d;
    SimState st;
    st.flows = shards.shard(s).flows;
    st.placement = run.placement;
    try {
      d = policies[static_cast<std::size_t>(s)]->on_epoch(m, st);
      try {
        PPDC_REQUIRE(st.placement.size() == static_cast<std::size_t>(n),
                     "placement length changed");
        validate_placement(m.apsp().graph(), st.placement);
        if (e.faults_active) {
          for (const NodeId sw : st.placement) {
            PPDC_REQUIRE(degraded->in_core(sw),
                         "VNF placed on a dead or unreachable switch");
          }
        }
      } catch (const PpdcError& err) {
        throw PpdcError("policy '" + policy_name +
                        "' produced an invalid placement at epoch " +
                        std::to_string(e.hour.value()) + " (shard '" +
                        shard_name(s) + "'): " + err.what());
      }
    } catch (const PpdcError&) {
      if (!config.ladder.enabled) throw;
      d = EpochDecision{};
      d.policy_failed = true;
      d.comm_cost = m.communication_cost(run.placement);
    }
    if (d.policy_failed) return;
    if (!d.moved_flows.empty()) {
      move_endpoints(s, e.hour, d.moved_flows, st.flows);
      m.endpoints_moved(d.moved_flows);
    }
    run.placement = st.placement;
    if (config.downtime_factor > 0.0) {
      d.migration_cost +=
          config.downtime_factor * m.total_rate() * d.migration_distance;
    }
  }

  /// A VM-migration policy (PLAN/MCF) relocated endpoints in its copy of
  /// the shard's flows: write them back into the shard's flow vector
  /// (which its cost models read) and into the workload's global vector.
  /// Single-shard runs only: VmMigrationConfig::host_capacity bounds
  /// every host across the whole fleet, which one pod shard cannot see.
  void move_endpoints(int s, Hour hour, const std::vector<FlowId>& moved,
                      const std::vector<VmFlow>& relocated) {
    ShardedCostModel::Shard& sh = shards.shard(s);
    PPDC_REQUIRE(
        num_shards == 1,
        "policy '" + policy_name +
            "' relocated VM endpoints (EpochDecision::moved_flows) at "
            "epoch " + std::to_string(hour.value()) +
            ": VM-migration policies such as PLAN/MCF need the whole "
            "fleet in one shard (their host capacities span every pod) "
            "— run them on the monolithic run_simulation, or use a "
            "placement policy (NoMigration/mPareto/Optimal/Resolve) here");
    PPDC_REQUIRE(relocated.size() == sh.flows.size(),
                 "policy '" + policy_name + "' changed the flow count");
    for (const FlowId id : moved) {
      PPDC_REQUIRE(id.valid() && id < flow_count(sh.flows),
                   "moved flow " + std::to_string(id.value()) +
                       " out of range [0, " +
                       std::to_string(sh.flows.size()) + ")");
      const auto i = static_cast<std::size_t>(id.value());
      VmFlow& f = sh.flows[i];
      f.src_host = relocated[i].src_host;
      f.dst_host = relocated[i].dst_host;
      workload.relocate(sh.global_ids[i], f.src_host, f.dst_host);
    }
  }

  ShardRun& run_of(int s) { return runs[static_cast<std::size_t>(s)]; }
  const std::string& shard_name(int s) const {
    return map.names[static_cast<std::size_t>(s)];
  }

  template <typename Fn>
  void emit(Fn&& fn) {
    fn(static_cast<EpochObserver&>(recorder));
    if (auditor) fn(static_cast<EpochObserver&>(*auditor));
    if (observer != nullptr) fn(*observer);
  }

  /// Abandons the run `where` ("before" or "inside") epoch `hour`.
  [[noreturn]] void interrupt(Hour hour, const char* where) {
    emit([&](EpochObserver& o) { o.on_interrupted(hour); });
    throw SimInterrupted(std::string("simulation cancelled ") + where +
                         " epoch " + std::to_string(hour.value()) + " of " +
                         std::to_string(config.hours));
  }

  /// Rebuilds the shared degraded view from the injector's dead set and
  /// drops every shard's degraded model of the previous view.
  void rebuild_degraded() {
    for (ShardRun& run : runs) run.degraded_model.reset();
    degraded.reset();
    if (injector && injector->any_faults_active()) {
      degraded = std::make_unique<DegradedNetwork>(
          apsp.graph(), injector->dead_nodes(), injector->dead_edges());
    }
  }

  /// Moves shard `s` one rung down (`delta` +1) or up (-1) its ladder.
  void step_rung(Epoch& e, int s, int delta, const char* reason) {
    ShardRun& run = run_of(s);
    const DegradationRung from = run.rung;
    run.rung = static_cast<DegradationRung>(static_cast<int>(from) + delta);
    ++e.ladder_steps;
    emit([&](EpochObserver& o) {
      o.on_shard_ladder_transition(e.hour, s, shard_name(s), from, run.rung,
                                   reason);
    });
  }

  void load_schedule(Hour hour) {
    if (!scheduled || schedule_hour == hour) return;
    schedule_rates = config.rate_schedule(hour);
    const std::size_t flows = workload.flows().size();
    PPDC_REQUIRE(schedule_rates.size() == flows,
                 "rate_schedule(hour " + std::to_string(hour.value()) +
                     ") returned " + std::to_string(schedule_rates.size()) +
                     " rates for " + std::to_string(flows) + " flows");
    for (std::size_t i = 0; i < flows; ++i) {
      PPDC_REQUIRE(schedule_rates[i] >= 0.0,
                   "rate_schedule(hour " + std::to_string(hour.value()) +
                       ") returned a negative rate for flow " +
                       std::to_string(i));
    }
    schedule_hour = hour;
  }

  /// One shard's rates at `hour` (load_schedule(hour) must have run).
  std::vector<double> shard_rates(const ShardedCostModel::Shard& sh,
                                  Hour hour) const {
    if (!scheduled) {
      return diurnal_rates_grouped(config.diurnal, sh.base_rates, sh.groups,
                                   hour);
    }
    std::vector<double> rates(sh.flows.size(), 0.0);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const FlowId g = sh.global_ids[i];
      if (g.valid()) {
        rates[i] = schedule_rates[static_cast<std::size_t>(g.value())];
      }
    }
    return rates;
  }
};

}  // namespace

SimTrace run_sharded_simulation(const AllPairs& apsp, const ShardMap& map,
                                StreamingWorkload& workload, int n,
                                const SimConfig& config,
                                const ShardedStreamingConfig& sharded,
                                const MigrationPolicy& prototype,
                                EpochObserver* observer) {
  validate_run(map, workload, config, sharded);
  std::vector<std::unique_ptr<MigrationPolicy>> clones;
  ShardPolicies policies;
  for (int s = 0; s < map.num_shards(); ++s) {
    clones.push_back(prototype.clone());
    PPDC_REQUIRE(clones.back() != nullptr,
                 "policy '" + prototype.name() + "' returned a null clone()");
    policies.push_back(clones.back().get());
  }
  return EpochEngine{apsp,    map,     workload, n,
                     config,  sharded, policies, observer}
      .run();
}

SimTrace run_simulation(const AllPairs& apsp,
                        const std::vector<VmFlow>& base_flows, int n,
                        const SimConfig& config, MigrationPolicy& policy,
                        EpochObserver* observer) {
  const ShardMap map = ShardMap::single(apsp.graph());
  StreamingWorkload workload(base_flows);
  const ShardedStreamingConfig one_shard;  // one thread, no journal
  validate_run(map, workload, config, one_shard);
  return EpochEngine{apsp,   map,       workload,  n,
                     config, one_shard, {&policy}, observer}
      .run();
}

}  // namespace ppdc
