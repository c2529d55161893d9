// End-to-end and per-layer benchmark of the pod-sharded epoch engine
// (run_sharded_simulation, sim/sharded.hpp). See README.md beside this
// file for the workloads, the metric -> layer -> end-to-end map, and how
// to read a traced run.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// --trace 0 measures the end-to-end metrics: a fixed number of full runs
// of the workload plus set-up-only runs until --seconds is used up, all
// with tracing off. --trace 1 runs the workload untraced and then traced
// (observer spans at every callback, a timing decorator around the mPareto
// policy, and a probe stage that times the layers' public calls on the same
// seeded inputs) and reports the per-layer metrics. Either mode also runs
// the pinned check run (kPinnedSeed, a short horizon) and compares its
// output hash and total cost with the pinned values, whatever --seed is.
// The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Timing never feeds back into a result: the engine sees only the
// generated inputs, and every clock read happens in this file.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/migration_pareto.hpp"
#include "core/placement_dp.hpp"
#include "core/sharded_cost_model.hpp"
#include "fault/degraded.hpp"
#include "fault/fault.hpp"
#include "graph/apsp.hpp"
#include "sim/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/observer.hpp"
#include "sim/policy.hpp"
#include "sim/sharded.hpp"
#include "topology/fat_tree.hpp"
#include "util/checksum.hpp"
#include "util/options.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"
#include "workload/diurnal.hpp"
#include "workload/streaming.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace ppdc;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Shared by every workload: SFC length, migration coefficient and the DP
// candidate pruning the k=16 fabric needs.
constexpr int kSfcLength = 7;
constexpr double kMu = 1e4;
constexpr int kCandidateLimit = 48;
// The seed of every process's pinned check run (Workload::check_hours).
constexpr std::uint64_t kPinnedSeed = 1;

/// What a workload was chosen to exercise; each run asserts it still does.
enum class Regime {
  kResolve,  ///< every shard re-solves every epoch
  kHold,     ///< no shard re-solves after hour 0
  kChaos,    ///< faults, ladder, audit and per-epoch journal
};

struct Workload {
  std::string name;
  Regime regime = Regime::kResolve;
  int k = 16;
  int flows = 100000;
  int hours = 0;                 ///< horizon of one full run
  double resolve_fraction = 0;   ///< ShardedStreamingConfig
  int max_staleness = 4;
  double rack_zipf = 0.0;        ///< VmPlacementConfig::rack_zipf_s
  int full_runs = 1;             ///< untraced full runs per --trace 0 process
  int check_hours = 0;           ///< horizon of the pinned check run
  std::uint64_t pinned_hash = 0;   ///< check run's output hash at kPinnedSeed
  double pinned_total_cost = 0.0;  ///< check run's SimTrace::total_cost

  bool chaos() const { return regime == Regime::kChaos; }
};

// The horizons and run counts give every workload a fixed number of epoch
// samples per --trace 0 process (resolve 40, hold 56, chaos 120), so
// epoch_s_tail is always the same percentile (p75, p75, p90: the highest
// with ten samples beyond it). `hold` runs short horizons because a shard
// re-solves once its cumulative churn reaches its live flow count (~6%
// churn per epoch). `chaos` uses the k=8 fabric and uniform racks: its
// epochs are then mostly audit and journal work, and a seed whose outage
// hits a Zipf-hot pod cannot swing total_cost by a fifth. The check run
// is short so that every process can afford it: on `chaos` it still spans
// the maintenance drain, so it covers the fault path too.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"resolve", Regime::kResolve, 16, 100000, 21, 0.0, 4, 2.2, 2, 3,
       0xb9a0bc9186870c83ULL, 5491714774.577652},
      {"hold", Regime::kHold, 16, 1000000, 15, 1.0, 16, 2.2, 4, 3,
       0xcfef3fa2ed257f9aULL, 54981485668.504623},
      {"chaos", Regime::kChaos, 8, 100000, 41, 0.0, 4, 0.0, 3, 8,
       0x8f3917ec93985a76ULL, 21041577023.029324},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Inputs and engine configuration
// ---------------------------------------------------------------------------

/// The seeded inputs of one run, with the time each generator took.
struct Inputs {
  std::unique_ptr<Topology> topo;
  std::unique_ptr<AllPairs> apsp;  ///< points into *topo
  ShardMap map;
  std::unique_ptr<StreamingWorkload> workload;
  FaultSchedule faults;
  double topology_s = 0.0;
  double apsp_s = 0.0;
  double generate_s = 0.0;
};

StreamingChurnConfig churn_of(const Workload& w) {
  StreamingChurnConfig c;
  c.arrivals_per_epoch = w.flows / 200;
  c.departure_prob = 0.005;
  c.rerate_prob = 0.05;
  return c;
}

VmPlacementConfig population_of(const Workload& w) {
  VmPlacementConfig c;
  c.num_pairs = w.flows;
  c.intra_rack_fraction = 0.8;
  c.rack_zipf_s = w.rack_zipf;
  return c;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  const auto t0 = Clock::now();
  in.topo = std::make_unique<Topology>(build_fat_tree(w.k));
  const auto t1 = Clock::now();
  in.apsp = std::make_unique<AllPairs>(in.topo->graph);
  const auto t2 = Clock::now();
  in.map = ShardMap::by_ingress_pod(*in.topo);
  in.workload = std::make_unique<StreamingWorkload>(
      *in.topo, population_of(w), churn_of(w), Rng(seed));
  const auto t3 = Clock::now();
  if (w.chaos()) {
    // Seeded pod-scale power outages (one per ~10 epochs) and flapping
    // gray fabric links (one burst per ~7 epochs; a fat tree has k^3/2 of
    // them), plus a two-epoch maintenance drain of a seed-chosen pod so
    // that every seed has at least one fault epoch.
    const double pods = static_cast<double>(in.topo->power_domains.size());
    const double fabric_links = 0.5 * w.k * w.k * w.k;
    FaultScheduleConfig fc;
    fc.hours = w.hours;
    fc.seed = seed;
    fc.domain_mtbf = pods * 10.0;
    fc.domain_mttr = 3.0;
    fc.flap_mtbf = fabric_links * 7.0;
    fc.flap_cycles = 2;
    const std::uint64_t drained = seed % static_cast<std::uint64_t>(w.k);
    fc.maintenance = {{"pod" + std::to_string(drained), Hour{w.hours / 2},
                       Hour{w.hours / 2 + 2}}};
    in.faults = generate_fault_schedule(*in.topo, fc);
  }
  in.topology_s = seconds_between(t0, t1);
  in.apsp_s = seconds_between(t1, t2);
  in.generate_s = seconds_between(t2, t3);
  return in;
}

TopDpOptions dp_options() {
  TopDpOptions o;
  o.candidate_limit = kCandidateLimit;
  return o;
}

ParetoMigrationOptions pareto_options() {
  ParetoMigrationOptions o;
  o.placement = dp_options();
  return o;
}

SimConfig sim_config(const Workload& w, const Inputs& in) {
  SimConfig c;
  c.hours = w.hours;
  c.initial_placement = dp_options();
  if (w.chaos()) {
    c.faults = in.faults;
    c.fault.mu = kMu;
    // About the mean communication cost of one unit of served rate, so an
    // unserved flow costs what it would have cost served. total_cost then
    // follows placement decisions, not how many outages the seed drew
    // (at 50, as in bench_chaos, it swung by 15% between seeds).
    c.fault.quarantine_penalty = 16.0;
    c.fault.placement = dp_options();
    c.ladder.enabled = true;
    c.audit.enabled = true;
  }
  return c;
}

ShardedStreamingConfig sharded_config(const Workload& w, int threads,
                                      const std::string& journal) {
  ShardedStreamingConfig c;
  c.enabled = true;
  c.churn = churn_of(w);
  c.resolve_churn_fraction = w.resolve_fraction;
  c.max_staleness = w.max_staleness;
  c.threads = threads;
  if (w.chaos()) {
    c.quarantine_sla = 5.0;
    c.epoch_journal = journal;
    c.epoch_checkpoint_every = 1;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Tracing: the solve log, the timing decorator and the epoch observer
// ---------------------------------------------------------------------------

/// One mPareto solve of one shard, as seen by the timing decorator.
struct SolveSpan {
  int epoch = 0;
  int shard = 0;
  int thread = 0;
  Clock::time_point start;
  Clock::time_point end;
  int moved = 0;  ///< VNFs the solve migrated
};

/// Per-shard solve spans. Each shard's vector is written only by the
/// worker thread solving that shard, and the engine joins its workers
/// before the next epoch, so no lock is needed.
struct SolveLog {
  explicit SolveLog(int shards) : by_shard(static_cast<std::size_t>(shards)) {}
  std::vector<std::vector<SolveSpan>> by_shard;
  std::atomic<int> epoch{0};  ///< set by the observer at on_epoch_begin
  int next_shard = 0;         ///< clone() order is shard order
};

/// Small dense id of the calling thread, for the solve spans.
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Times every on_epoch of the wrapped policy. The engine clones the
/// prototype once per shard, in shard order, so each clone knows its shard.
class TimedPolicy final : public MigrationPolicy {
 public:
  TimedPolicy(std::unique_ptr<MigrationPolicy> inner, SolveLog* log,
              int shard)
      : inner_(std::move(inner)), log_(log), shard_(shard) {}

  std::string name() const override { return inner_->name(); }

  std::unique_ptr<MigrationPolicy> clone() const override {
    PPDC_REQUIRE(log_->next_shard < static_cast<int>(log_->by_shard.size()),
                 "more policy clones than shards");
    return std::make_unique<TimedPolicy>(inner_->clone(), log_,
                                         log_->next_shard++);
  }

  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    SolveSpan span;
    span.epoch = log_->epoch.load(std::memory_order_relaxed);
    span.shard = shard_;
    span.thread = thread_index();
    span.start = Clock::now();
    EpochDecision d = inner_->on_epoch(model, state);
    span.end = Clock::now();
    span.moved = d.vnf_migrations;
    log_->by_shard[static_cast<std::size_t>(shard_)].push_back(span);
    return d;
  }

 private:
  std::unique_ptr<MigrationPolicy> inner_;
  SolveLog* log_;
  int shard_;
};

/// One observer callback, kept for the span file of a traced run.
struct ObservedEvent {
  std::string name;
  int hour = 0;
  Clock::time_point at;
};

/// Records the epoch boundaries (always) and every callback (traced runs).
/// In set-up-only mode it requests cancellation at on_run_begin, so the
/// engine stops before epoch 0 and the run measures set-up alone.
class PhaseClock final : public EpochObserver {
 public:
  PhaseClock(SolveLog* log, bool stop_after_setup)
      : log_(log), stop_after_setup_(stop_after_setup) {}

  std::atomic<bool> cancel{false};
  Clock::time_point run_begin, run_end;
  std::vector<Clock::time_point> epoch_begin, shard_batch, epoch_end;
  std::vector<int> churned;  ///< per epoch
  int fault_epochs = 0;
  int shard_failures = 0;  ///< policy throws contained by the shard ladder
  std::vector<ObservedEvent> events;

  void on_run_begin(Hour /*horizon*/, const Placement& /*initial*/) override {
    run_begin = Clock::now();
    note("run_begin", -1, run_begin);
    if (stop_after_setup_) cancel.store(true, std::memory_order_relaxed);
  }
  void on_epoch_begin(Hour hour) override {
    epoch_begin.push_back(Clock::now());
    note("epoch_begin", hour.value(), epoch_begin.back());
    if (log_ != nullptr) log_->epoch.store(hour.value());
  }
  void on_faults(Hour hour, const EpochFaults& /*events*/) override {
    ++fault_epochs;
    note("faults", hour.value(), Clock::now());
  }
  void on_quarantine(Hour hour, int, double, double) override {
    note("quarantine", hour.value(), Clock::now());
  }
  void on_blackout(Hour hour) override {
    note("blackout", hour.value(), Clock::now());
  }
  void on_recovery(Hour hour, int, double) override {
    note("recovery", hour.value(), Clock::now());
  }
  void on_budget_truncation(Hour hour, int) override {
    note("budget_truncation", hour.value(), Clock::now());
  }
  void on_shard_batch(Hour hour, int /*resolved*/, int /*held*/,
                      int churn) override {
    shard_batch.push_back(Clock::now());
    churned.push_back(churn);
    note("shard_batch", hour.value(), shard_batch.back());
  }
  void on_shard_ladder_transition(Hour hour, int, const std::string&,
                                  DegradationRung, DegradationRung,
                                  const std::string&) override {
    note("shard_ladder_transition", hour.value(), Clock::now());
  }
  void on_shard_quarantine(Hour hour, int, const std::string&, int,
                           int) override {
    ++shard_failures;
    note("shard_quarantine", hour.value(), Clock::now());
  }
  void on_shard_retry(Hour hour, int, const std::string&, bool) override {
    note("shard_retry", hour.value(), Clock::now());
  }
  void on_epoch_end(Hour hour, const EpochDecision& /*d*/) override {
    epoch_end.push_back(Clock::now());
    note("epoch_end", hour.value(), epoch_end.back());
  }
  void on_run_end() override {
    run_end = Clock::now();
    note("run_end", -1, run_end);
  }

  /// End of epoch `h`: the next on_epoch_begin, or on_run_end.
  Clock::time_point epoch_close(std::size_t h) const {
    return h + 1 < epoch_begin.size() ? epoch_begin[h + 1] : run_end;
  }

 private:
  void note(const char* name, int hour, Clock::time_point at) {
    if (log_ != nullptr) events.push_back({name, hour, at});
  }

  SolveLog* log_;  ///< non-null in traced runs
  bool stop_after_setup_;
};

// ---------------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------------

/// Hash of every merged EpochDecision and the trace totals.
std::uint64_t trace_hash(const SimTrace& t) {
  Hash64 h;
  h.u64(t.initial_placement.size());
  for (const NodeId v : t.initial_placement) h.i64(v);
  h.u64(t.epochs.size());
  for (const EpochDecision& d : t.epochs) {
    h.f64(d.comm_cost).f64(d.migration_cost).f64(d.migration_distance);
    h.i64(d.vnf_migrations).i64(d.vm_migrations).u64(d.moved_flows.size());
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

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The highest of the p50/p75/p90/p95/p99 percentiles (nearest rank) that
/// has at least ten samples above it.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) return {p, v[rank - 1]};
  }
  return {100.0, n == 0 ? 0.0 : v.back()};
}

/// Rewrites a journal state a few times and returns the median write time.
double time_journal_rewrite(const EpochJournalState& state,
                            const std::string& path) {
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    const auto a = Clock::now();
    write_epoch_journal(path, state);
    t.push_back(seconds_between(a, Clock::now()));
  }
  remove_epoch_journal(path);
  return median(t);
}

// ---------------------------------------------------------------------------
// One run of the engine
// ---------------------------------------------------------------------------

struct RunResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double topology_s = 0.0, apsp_s = 0.0, generate_s = 0.0;
  int num_shards = 0;
  int graph_nodes = 0;
  SimTrace trace;
  std::uint64_t hash = 0;
  std::unique_ptr<PhaseClock> clock;
  std::vector<double> epoch_s;  ///< epochs >= 1
  // Journal facts of a chaos run, read back before the file is removed.
  int journal_epochs = 0;
  double journal_mib = 0.0;
  double journal_write_s = 0.0;  ///< traced runs: median probe rewrite
};

std::string journal_path(const std::string& work_dir, const Workload& w,
                         std::uint64_t seed) {
  return work_dir + "/" + w.name + "-" + std::to_string(seed) + ".journal";
}

/// Runs the workload once. `setup_only` stops the engine right after its
/// hour-0 solve; `log` (traced runs) installs the timing decorator.
RunResult run_once(const Workload& w, std::uint64_t seed, int threads,
                   const std::string& work_dir, bool setup_only,
                   SolveLog* log) {
  RunResult r;
  const auto t0 = Clock::now();
  Inputs in = make_inputs(w, seed);
  r.topology_s = in.topology_s;
  r.apsp_s = in.apsp_s;
  r.generate_s = in.generate_s;
  r.num_shards = in.map.num_shards();
  r.graph_nodes = static_cast<int>(in.topo->graph.num_nodes());

  const std::string journal = journal_path(work_dir, w, seed);
  SimConfig sim = sim_config(w, in);
  const ShardedStreamingConfig sharded = sharded_config(w, threads, journal);
  if (w.chaos()) remove_epoch_journal(journal);

  r.clock = std::make_unique<PhaseClock>(log, setup_only);
  if (setup_only) sim.cancel = &r.clock->cancel;
  const ParetoMigrationPolicy pareto(kMu, pareto_options());
  std::optional<TimedPolicy> timed;
  if (log != nullptr) timed.emplace(pareto.clone(), log, -1);
  const MigrationPolicy& policy =
      timed ? static_cast<const MigrationPolicy&>(*timed) : pareto;

  try {
    r.trace = run_sharded_simulation(*in.apsp, in.map, *in.workload,
                                     kSfcLength, sim, sharded, policy,
                                     r.clock.get());
  } catch (const SimInterrupted&) {
    if (!setup_only) throw;
  }
  r.setup_s = seconds_between(t0, r.clock->run_begin);
  if (setup_only) return r;

  r.wall_s = seconds_between(t0, r.clock->run_end);
  r.hash = trace_hash(r.trace);
  const PhaseClock& c = *r.clock;
  for (std::size_t h = 1; h < c.epoch_begin.size(); ++h) {
    r.epoch_s.push_back(seconds_between(c.epoch_begin[h], c.epoch_close(h)));
  }
  if (w.chaos()) {
    EpochJournalState state;
    if (read_epoch_journal(journal, state)) {
      r.journal_epochs = static_cast<int>(state.epochs.size());
      r.journal_mib = static_cast<double>(std::filesystem::file_size(journal)) /
                      (1024.0 * 1024.0);
      if (log != nullptr) {
        r.journal_write_s =
            time_journal_rewrite(state, journal + ".probe");
      }
    }
    remove_epoch_journal(journal);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Collects failed checks; any failure marks the whole process as failed.
struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

/// Output and regime checks of one full run.
void check_run(const Workload& w, std::uint64_t seed, const RunResult& r,
               Checks& checks) {
  const SimTrace& t = r.trace;
  const std::string tag = w.name + " seed " + std::to_string(seed) + ": ";
  checks.require(static_cast<int>(t.epochs.size()) == w.hours,
                 tag + "trace has the wrong number of epochs");
  // total_cost must be the sum of its parts, added as TraceRecorder does.
  double comm = 0.0, mig = 0.0, rec = 0.0, qpen = 0.0, spen = 0.0;
  for (const EpochDecision& d : t.epochs) {
    comm += d.comm_cost;
    mig += d.migration_cost;
    rec += d.recovery_cost;
    qpen += d.quarantine_penalty;
    spen += d.shard_penalty;
  }
  checks.require(comm + mig + rec + qpen + spen == t.total_cost &&
                     std::isfinite(t.total_cost) && t.total_cost > 0.0,
                 tag + "total_cost is not the sum of the epoch costs");
  // Regime guards: the run must still exercise the layer it was chosen for.
  for (std::size_t h = 0; h < t.epochs.size(); ++h) {
    const EpochDecision& d = t.epochs[h];
    if (w.regime == Regime::kResolve) {
      checks.require(d.resolved_shards == r.num_shards,
                     tag + "a shard held at epoch " + std::to_string(h));
    }
    if (w.regime == Regime::kHold && h >= 1) {
      checks.require(d.resolved_shards == 0,
                     tag + "a shard re-solved at epoch " + std::to_string(h));
    }
  }
  if (w.chaos()) {
    checks.require(r.clock->fault_epochs >= 1, tag + "no fault epoch");
    checks.require(r.journal_epochs >= 1, tag + "no epoch journal write");
    checks.require(t.audited_epochs == w.hours,
                   tag + "the auditor did not check every epoch");
  }
}

/// Runs the pinned check run and compares it with the pinned values, so
/// that every process checks the engine's decisions against known output.
/// On `chaos` the fault schedule is generated for the check horizon.
RunResult run_pinned_check(const Workload& w, int threads,
                           const std::string& work_dir, Checks& checks) {
  Workload c = w;
  c.hours = w.check_hours;
  RunResult r = run_once(c, kPinnedSeed, threads, work_dir, false, nullptr);
  check_run(c, kPinnedSeed, r, checks);
  const std::string tag =
      w.name + " check run (seed " + std::to_string(kPinnedSeed) + "): ";
  checks.require(r.hash == w.pinned_hash, tag + "output hash " + hex(r.hash) +
                                              " != pinned " +
                                              hex(w.pinned_hash));
  checks.require(r.trace.total_cost == w.pinned_total_cost,
                 tag + "total_cost " + json_number(r.trace.total_cost) +
                     " != pinned " + json_number(w.pinned_total_cost));
  return r;
}

int failed_shard_epochs(const RunResult& r) {
  return r.trace.quarantined_shard_epochs + r.clock->shard_failures;
}

int shard_count(const Workload& w) {
  return ShardMap::by_ingress_pod(build_fat_tree(w.k)).num_shards();
}

/// Shard-epochs that `runs` full runs of `w` plus its check run attempt.
long long planned_shard_epochs(const Workload& w, int runs) {
  return static_cast<long long>(shard_count(w)) *
         (static_cast<long long>(w.hours) * runs + w.check_hours);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-30s %20.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << ms[i].name << "\": {\"value\": " << json_number(ms[i].value)
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// The end-to-end figures of a set of full runs plus extra set-up samples.
struct EndToEnd {
  double setup_s = 0.0;
  double epoch_p50 = 0.0;
  Tail tail;
  std::size_t epoch_samples = 0;
  double wall_s = 0.0;
  double total_cost = 0.0;
  double peak_rss_mib = 0.0;  ///< after the first full run
};

EndToEnd summarise(const std::vector<RunResult>& full,
                   const std::vector<double>& extra_setups,
                   std::size_t peak_rss) {
  EndToEnd e;
  std::vector<double> setups = extra_setups, epochs, walls;
  for (const RunResult& r : full) {
    setups.push_back(r.setup_s);
    walls.push_back(r.wall_s);
    epochs.insert(epochs.end(), r.epoch_s.begin(), r.epoch_s.end());
  }
  e.setup_s = median(setups);
  e.epoch_p50 = median(epochs);
  e.tail = tail_of(epochs);
  e.epoch_samples = epochs.size();
  e.wall_s = median(walls);
  e.total_cost = full.empty() ? 0.0 : full.front().trace.total_cost;
  e.peak_rss_mib = static_cast<double>(peak_rss) / (1024.0 * 1024.0);
  return e;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Probe stage of a traced run
// ---------------------------------------------------------------------------

struct Probes {
  double shard_model_build_s = 0.0;
  double hour0_solve_s = 0.0;
  double hour0_solve_max_s = 0.0;
  double top_dp_s = 0.0;
  double pareto_s = 0.0;
  double advance_s = 0.0;
  double apply_churn_s = 0.0;
  double refresh_scaled_s = 0.0;
  double held_cost_s = 0.0;
  double degraded_rebuild_s = 0.0;
  int degraded_rebuilds = 0;
};

/// Times the layers' public calls on a fresh copy of the run's seeded
/// inputs, replaying the engine's pristine epoch path for a few epochs.
Probes run_probes(const Workload& w, std::uint64_t seed) {
  Probes p;
  Inputs in = make_inputs(w, seed);
  const SimConfig sim = sim_config(w, in);
  StreamingWorkload& wl = *in.workload;
  const int n_groups = std::max(num_groups(groups_of(wl.flows())), 2);

  auto t = Clock::now();
  ShardedCostModel shards(*in.apsp, in.map, wl.flows(), n_groups);
  p.shard_model_build_s = seconds_between(t, Clock::now());
  const int num_shards = shards.num_shards();

  auto recombine = [&](int s, Hour hour) {
    ShardedCostModel::Shard& sh = shards.shard(s);
    set_rates(sh.flows, diurnal_rates_grouped(sim.diurnal, sh.base_rates,
                                              sh.groups, hour));
    const std::vector<double> scales =
        sim.diurnal.group_scales(hour, n_groups);
    t = Clock::now();
    sh.model->refresh_scaled(scales);
    return seconds_between(t, Clock::now());
  };

  // Hour 0: the serial per-shard TOP solve of the engine's set-up.
  std::vector<Placement> placement(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    recombine(s, Hour{0});
    t = Clock::now();
    placement[static_cast<std::size_t>(s)] =
        solve_top_dp(*shards.shard(s).model, kSfcLength, dp_options())
            .placement;
    const double dt = seconds_between(t, Clock::now());
    p.hour0_solve_s += dt;
    p.hour0_solve_max_s = std::max(p.hour0_solve_max_s, dt);
  }

  // Epochs 1..: churn, recombination, held costing; at epoch 1 also the
  // split of one mPareto solve per shard into its inner DP and the rest.
  const int probe_epochs = std::min(w.hours - 1, 5);
  std::vector<double> adv, churn, refresh, held;
  for (int h = 1; h <= probe_epochs; ++h) {
    t = Clock::now();
    const FlowChurn fc = wl.advance();
    adv.push_back(seconds_between(t, Clock::now()));
    t = Clock::now();
    shards.apply_churn(wl.flows(), fc);
    churn.push_back(seconds_between(t, Clock::now()));
    double refresh_s = 0.0, held_s = 0.0;
    for (int s = 0; s < num_shards; ++s) {
      refresh_s += recombine(s, Hour{h});
      t = Clock::now();
      const double cost = shards.shard(s).model->communication_cost(
          placement[static_cast<std::size_t>(s)]);
      held_s += seconds_between(t, Clock::now());
      PPDC_REQUIRE(std::isfinite(cost), "probe: non-finite held cost");
    }
    refresh.push_back(refresh_s);
    held.push_back(held_s);
    if (h == 1) {
      for (int s = 0; s < num_shards; ++s) {
        const CostModel& m = *shards.shard(s).model;
        t = Clock::now();
        (void)solve_top_dp(m, kSfcLength, dp_options());
        const double dp = seconds_between(t, Clock::now());
        t = Clock::now();
        (void)solve_tom_pareto(m, placement[static_cast<std::size_t>(s)], kMu,
                               pareto_options());
        const double whole = seconds_between(t, Clock::now());
        p.top_dp_s += dp;
        p.pareto_s += std::max(0.0, whole - dp);
      }
    }
  }
  p.advance_s = median(adv);
  p.apply_churn_s = median(churn);
  p.refresh_scaled_s = median(refresh);
  p.held_cost_s = median(held);

  // Fault layer: rebuild the degraded view at every topology change.
  if (!in.faults.empty()) {
    FaultInjector inj(in.topo->graph, in.faults);
    std::vector<double> rebuild;
    for (int h = 1; h < w.hours; ++h) {
      const EpochFaults ev = inj.advance_to(Hour{h});
      if (!ev.topology_changed || !inj.any_faults_active()) continue;
      t = Clock::now();
      const DegradedNetwork dn(in.topo->graph, inj.dead_nodes(),
                               inj.dead_edges());
      rebuild.push_back(seconds_between(t, Clock::now()));
    }
    p.degraded_rebuilds = static_cast<int>(rebuild.size());
    p.degraded_rebuild_s = median(rebuild);
  }
  return p;
}

/// Per-epoch pool figures of a traced run, from the solve log and clock.
struct PoolFigures {
  double solve_s = 0.0;      ///< median Σ solve time per epoch
  double solve_max_s = 0.0;  ///< median busiest-thread solve time per epoch
  double utilisation = 0.0;  ///< median busy / (threads × shard phase)
  double shard_phase_s = 0.0;
  double post_merge_s = 0.0;
  double audit_s = 0.0;
  int solves = 0;
  int useful = 0;
};

PoolFigures pool_figures(const RunResult& r, const SolveLog& log, int threads,
                         double journal_write_s, bool journaling) {
  PoolFigures f;
  const PhaseClock& c = *r.clock;
  const std::size_t hours = c.epoch_begin.size();
  std::vector<double> busy(hours, 0.0), busiest(hours, 0.0);
  std::vector<std::map<int, double>> per_thread(hours);
  for (const auto& spans : log.by_shard) {
    for (const SolveSpan& s : spans) {
      const double d = seconds_between(s.start, s.end);
      const auto h = static_cast<std::size_t>(s.epoch);
      busy[h] += d;
      per_thread[h][s.thread] += d;
      ++f.solves;
      if (s.moved > 0) ++f.useful;
    }
  }
  std::vector<double> solve, maxs, util, phase, post, audit;
  for (std::size_t h = 1; h < hours; ++h) {
    for (const auto& [tid, d] : per_thread[h]) {
      busiest[h] = std::max(busiest[h], d);
    }
    const double ph = seconds_between(c.epoch_begin[h], c.shard_batch[h]);
    const double pm = seconds_between(c.epoch_end[h], c.epoch_close(h));
    solve.push_back(busy[h]);
    maxs.push_back(busiest[h]);
    util.push_back(busy[h] / (static_cast<double>(threads) * ph));
    phase.push_back(ph);
    post.push_back(pm);
    // The engine skips the journal write after the final epoch.
    const bool wrote = journaling && h + 1 < hours;
    audit.push_back(pm - (wrote ? journal_write_s : 0.0));
  }
  f.solve_s = median(solve);
  f.solve_max_s = median(maxs);
  f.utilisation = median(util);
  f.shard_phase_s = median(phase);
  f.post_merge_s = median(post);
  f.audit_s = median(audit);
  return f;
}

/// Writes the traced run's spans as JSON lines (nanoseconds from the start
/// of the run's first callback).
void write_spans(const std::string& path, const RunResult& r,
                 const SolveLog& log) {
  std::ofstream os(path);
  const PhaseClock& c = *r.clock;
  const Clock::time_point base = c.run_begin;
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - base)
            .count());
  };
  auto span = [&](const char* name, const char* parent, int hour,
                  Clock::time_point a, Clock::time_point b) {
    os << "{\"span\":\"" << name << "\",\"parent\":\"" << parent
       << "\",\"hour\":" << hour << ",\"start_ns\":" << ns(a)
       << ",\"end_ns\":" << ns(b) << "}\n";
  };
  for (std::size_t h = 0; h < c.epoch_begin.size(); ++h) {
    const int hour = static_cast<int>(h);
    span("epoch", "run", hour, c.epoch_begin[h], c.epoch_close(h));
    span("shard_phase", "epoch", hour, c.epoch_begin[h], c.shard_batch[h]);
    span("merge", "epoch", hour, c.shard_batch[h], c.epoch_end[h]);
    span("post_merge", "epoch", hour, c.epoch_end[h], c.epoch_close(h));
  }
  for (const auto& spans : log.by_shard) {
    for (const SolveSpan& s : spans) {
      os << "{\"span\":\"solve\",\"parent\":\"shard_phase\",\"hour\":"
         << s.epoch << ",\"shard\":" << s.shard << ",\"thread\":" << s.thread
         << ",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
         << ",\"moved\":" << s.moved << "}\n";
    }
  }
  for (const ObservedEvent& e : c.events) {
    os << "{\"event\":\"" << e.name << "\",\"hour\":" << e.hour
       << ",\"at_ns\":" << ns(e.at) << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"epoch_s_p50", e.epoch_p50, "s"},
      {"epoch_s_tail", e.tail.value, "s"},
      {"wall_s", e.wall_s, "s"},
      {"peak_rss_mib", e.peak_rss_mib, "MiB"},
      {"total_cost", e.total_cost, "cost"},
  };
}

void print_end_to_end(const std::string& label, const EndToEnd& e) {
  std::cout << label << ": setup " << fixed(e.setup_s, 3) << " s, epoch p50 "
            << fixed(e.epoch_p50, 4) << " s, epoch p"
            << fixed(e.tail.percentile, 0) << " " << fixed(e.tail.value, 4)
            << " s (" << e.epoch_samples << " epochs), wall "
            << fixed(e.wall_s, 3) << " s\n";
}

/// Prints the output hash and total cost of the measured seed and of the
/// pinned check run.
void print_outputs(const std::vector<RunResult>& full,
                   const std::optional<RunResult>& check) {
  if (!full.empty()) {
    std::cout << "output hash " << hex(full.front().hash) << ", total_cost "
              << json_number(full.front().trace.total_cost) << "\n";
  }
  if (check) {
    std::cout << "check run (seed " << kPinnedSeed << ", "
              << check->trace.epochs.size() << " epochs): output hash "
              << hex(check->hash)
              << ", total_cost " << json_number(check->trace.total_cost)
              << "\n";
  }
}

int run_untraced(const Workload& w, std::uint64_t seed, double budget_s,
                 int threads, const std::string& work_dir) {
  const auto start = Clock::now();
  Checks checks;
  std::vector<RunResult> full;
  std::vector<double> extra_setups;
  std::optional<RunResult> check;
  // Read after the first run, before the check run: later runs reuse freed
  // memory unevenly, and the check run's inputs are not this seed's.
  std::size_t peak_rss = 0;
  const long long attempted = planned_shard_epochs(w, w.full_runs);
  long long failed = 0;
  try {
    for (int i = 0; i < w.full_runs; ++i) {
      full.push_back(run_once(w, seed, threads, work_dir, false, nullptr));
      const RunResult& r = full.back();
      check_run(w, seed, r, checks);
      checks.require(r.hash == full.front().hash,
                     "repeated runs of one seed produced different hashes");
      failed += failed_shard_epochs(r);
      if (i == 0) peak_rss = peak_rss_bytes();
    }
    check = run_pinned_check(w, threads, work_dir, checks);
    failed += failed_shard_epochs(*check);
    // Set-up-only runs fill the rest of the time budget, so setup_s is a
    // median over at least three samples.
    double longest = 0.0;
    for (const RunResult& r : full) longest = std::max(longest, r.setup_s);
    while (full.size() + extra_setups.size() < 3 ||
           seconds_between(start, Clock::now()) + 1.5 * longest < budget_s) {
      const RunResult r =
          run_once(w, seed, threads, work_dir, true, nullptr);
      extra_setups.push_back(r.setup_s);
      longest = std::max(longest, r.setup_s);
      if (extra_setups.size() >= 64) break;
    }
  } catch (const std::exception& e) {
    checks.failures.push_back(std::string("run threw: ") + e.what());
  }
  const bool correct = checks.ok() && !full.empty();
  if (!correct) failed = attempted;

  const EndToEnd e = summarise(full, extra_setups, peak_rss);
  std::cout << "perfbench " << w.name << " seed " << seed << " threads "
            << threads << ": " << full.size() << " full runs of " << w.hours
            << " epochs, " << full.size() + extra_setups.size()
            << " set-up samples, "
            << fixed(seconds_between(start, Clock::now()), 1) << " s\n";
  print_outputs(full, check);
  for (const std::string& f : checks.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  print_end_to_end("end to end (untraced)", e);
  std::cout << "epoch_s_tail is p" << fixed(e.tail.percentile, 0) << " over "
            << e.epoch_samples << " epochs; failed_share "
            << json_number(static_cast<double>(failed) /
                           static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " shard-epochs)\n";
  const std::vector<Metric> ms = end_to_end_metrics(e);
  print_metrics(ms);
  print_result(correct, attempted, failed, ms);
  return correct ? 0 : 1;
}

/// Why a per-layer metric does not measure its layer on `w`, or "" when it
/// does. Such a metric reads 0, except audit.check_s, which then holds only
/// the post-merge bookkeeping.
std::string idle_reason(const Workload& w, const std::string& metric) {
  auto starts = [&](const char* prefix) {
    return metric.rfind(prefix, 0) == 0;
  };
  if (!w.chaos() && (starts("checkpoint.") || starts("fault."))) {
    return "no epoch journal and no fault schedule outside chaos";
  }
  if (!w.chaos() && metric == "audit.check_s") {
    return "the audit is off outside chaos: post-merge bookkeeping only";
  }
  if (w.regime == Regime::kHold &&
      (starts("sim.policy_") || metric == "sim.useful_solve_ratio" ||
       metric == "sim.pool_utilisation" || metric == "sim.resolved_shards")) {
    return "no shard re-solves after hour 0";
  }
  if (w.regime == Regime::kResolve && metric == "sim.held_shards") {
    return "every shard re-solves every epoch";
  }
  return "";
}

int run_traced(const Workload& w, std::uint64_t seed, int threads,
               const std::string& work_dir) {
  const auto start = Clock::now();
  Checks checks;
  // One untraced and one traced full run of the seed, compared.
  std::vector<RunResult> plain, traced;
  std::unique_ptr<SolveLog> log;
  std::optional<RunResult> check;
  Probes probes;
  const long long attempted = planned_shard_epochs(w, 2);
  long long failed = 0;
  try {
    // The check run goes first, so the untraced and traced runs that are
    // compared both start warm.
    check = run_pinned_check(w, threads, work_dir, checks);
    failed += failed_shard_epochs(*check);
    plain.push_back(run_once(w, seed, threads, work_dir, false, nullptr));
    check_run(w, seed, plain.back(), checks);
    failed += failed_shard_epochs(plain.back());
    log = std::make_unique<SolveLog>(shard_count(w));
    traced.push_back(run_once(w, seed, threads, work_dir, false, log.get()));
    const RunResult& r = traced.back();
    check_run(w, seed, r, checks);
    checks.require(r.hash == plain.back().hash,
                   "traced run hash " + hex(r.hash) + " != untraced run hash " +
                       hex(plain.back().hash));
    failed += failed_shard_epochs(r);
    probes = run_probes(w, seed);
  } catch (const std::exception& e) {
    checks.failures.push_back(std::string("run threw: ") + e.what());
  }

  std::cout << "perfbench " << w.name << " seed " << seed << " threads "
            << threads << " (traced): 1 untraced + 1 traced run of "
            << w.hours << " epochs, "
            << fixed(seconds_between(start, Clock::now()), 1) << " s\n";
  print_outputs(plain, check);
  std::vector<Metric> ms;
  if (checks.ok() && !traced.empty()) {
    const EndToEnd u = summarise(plain, {}, peak_rss_bytes());
    const EndToEnd tr = summarise(traced, {}, peak_rss_bytes());
    std::cout << "traced run hash == untraced run hash\n";
    print_end_to_end("end to end (untraced)", u);
    print_end_to_end("end to end (traced)  ", tr);
    std::cout << "tracing overhead: setup " << fixed(tr.setup_s - u.setup_s, 4)
              << " s, epoch p50 " << fixed(tr.epoch_p50 - u.epoch_p50, 4)
              << " s, wall " << fixed(tr.wall_s - u.wall_s, 4) << " s ("
              << fixed(100.0 * (tr.wall_s / u.wall_s - 1.0), 2) << "%)\n";

    const RunResult& r = traced.front();
    const PoolFigures pool =
        pool_figures(r, *log, threads, r.journal_write_s, w.chaos());
    int churned = 0, resolved = 0, held = 0;
    for (const int c : r.clock->churned) churned += c;
    for (std::size_t h = 1; h < r.trace.epochs.size(); ++h) {
      resolved += r.trace.epochs[h].resolved_shards;
      held += r.trace.epochs[h].held_shards;
    }
    const double v = static_cast<double>(r.graph_nodes);
    ms = {
        {"topology.build_s", r.topology_s, "s"},
        {"graph.apsp_s", r.apsp_s, "s"},
        {"graph.apsp_mib", v * v * 8.0 / (1024.0 * 1024.0), "MiB"},
        {"workload.generate_s", r.generate_s, "s"},
        {"workload.advance_s", probes.advance_s, "s"},
        {"workload.churned_flows", static_cast<double>(churned), "count"},
        {"core.shard_model_build_s", probes.shard_model_build_s, "s"},
        {"core.apply_churn_s", probes.apply_churn_s, "s"},
        {"core.refresh_scaled_s", probes.refresh_scaled_s, "s"},
        {"core.held_cost_s", probes.held_cost_s, "s"},
        {"core.hour0_solve_s", probes.hour0_solve_s, "s"},
        {"core.hour0_solve_max_s", probes.hour0_solve_max_s, "s"},
        {"core.top_dp_s", probes.top_dp_s, "s"},
        {"core.pareto_s", probes.pareto_s, "s"},
        {"sim.policy_solve_s", pool.solve_s, "s"},
        {"sim.policy_solve_max_s", pool.solve_max_s, "s"},
        {"sim.policy_solves", static_cast<double>(pool.solves), "count"},
        {"sim.useful_solve_ratio",
         pool.solves == 0 ? 0.0
                          : static_cast<double>(pool.useful) / pool.solves,
         "ratio"},
        {"sim.pool_utilisation", pool.utilisation, "ratio"},
        {"sim.shard_phase_s", pool.shard_phase_s, "s"},
        {"sim.resolved_shards", static_cast<double>(resolved), "count"},
        {"sim.held_shards", static_cast<double>(held), "count"},
        {"sim.post_merge_s", pool.post_merge_s, "s"},
        {"checkpoint.journal_write_s", r.journal_write_s, "s"},
        {"checkpoint.journal_mib", r.journal_mib, "MiB"},
        {"audit.check_s", pool.audit_s, "s"},
        {"fault.fault_epochs", static_cast<double>(r.clock->fault_epochs),
         "count"},
        {"fault.degraded_rebuild_s", probes.degraded_rebuild_s, "s"},
        {"fault.recovery_migrations",
         static_cast<double>(r.trace.total_recovery_migrations), "count"},
        {"trace.wall_overhead_share", tr.wall_s / u.wall_s - 1.0, "ratio"},
    };
    std::cout << "attribution: policy solves keep the pool "
              << fixed(100.0 * pool.utilisation, 1)
              << "% busy during the shard phase; post-merge "
              << fixed(pool.post_merge_s, 4) << " s = journal write "
              << fixed(r.journal_write_s, 4) << " s + audit "
              << fixed(pool.audit_s, 4) << " s\n";
    // The attribution must match the regime the workload was chosen for.
    const std::string tag = w.name + " attribution: ";
    if (w.regime == Regime::kResolve) {
      checks.require(pool.utilisation >= 0.5,
                     tag + "policy solves fill less than half of the pool's "
                           "shard phase");
    }
    if (w.regime == Regime::kHold) {
      checks.require(pool.solves == 0, tag + "a policy solve after hour 0");
    }
    if (w.chaos()) {
      checks.require(r.journal_write_s > 0.0, tag + "no journal write time");
      checks.require(pool.audit_s > 0.0,
                     tag + "post-merge is not longer than the journal write");
    }
    std::cout << "per layer (traced run; sums are per epoch, medians over "
                 "epochs >= 1; "
              << probes.degraded_rebuilds << " degraded rebuilds probed)\n";
    print_metrics(ms);
    for (const Metric& m : ms) {
      const std::string why = idle_reason(w, m.name);
      if (!why.empty()) {
        std::cout << "not measured on " << w.name << ": " << m.name << " ("
                  << why << ")\n";
      }
    }
    const std::string spans =
        work_dir + "/spans-" + w.name + "-" + std::to_string(seed) + ".jsonl";
    write_spans(spans, r, *log);
    std::cout << "spans written to " << spans << "\n";
  }
  for (const std::string& f : checks.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  const bool correct = checks.ok() && !ms.empty();
  print_result(correct, attempted, correct ? failed : attempted, ms);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = Options::parse(argc, argv);
    opts.restrict_to({"workload", "seed", "seconds", "trace", "work-dir"});
    const std::string name = opts.get_string("workload", "");
    const Workload* w = find_workload(name);
    if (w == nullptr) {
      std::cerr << "perfbench: unknown --workload '" << name << "'\n";
      return 2;
    }
    const std::int64_t seed = opts.get_int("seed", -1);
    const std::int64_t seconds = opts.get_int("seconds", 40);
    const std::int64_t trace = opts.get_int("trace", 0);
    const std::string work_dir = opts.get_string("work-dir", "");
    if (seed < 0 || seconds < 1 || (trace != 0 && trace != 1) ||
        work_dir.empty()) {
      std::cerr << "perfbench: need --seed >= 0, --seconds >= 1, --trace 0|1 "
                   "and --work-dir\n";
      return 2;
    }
    // Shard threads: one fewer than the (at most four) hardware threads,
    // so the main thread and the rest of the machine do not preempt a
    // solver (README.md, "Noise"). Results are bit-identical at any count.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int threads = std::max(1, std::clamp(hw, 1, 4) - 1);
    std::filesystem::create_directories(work_dir);
    const auto s = static_cast<std::uint64_t>(seed);
    return trace == 1
               ? run_traced(*w, s, threads, work_dir)
               : run_untraced(*w, s, static_cast<double>(seconds), threads,
                              work_dir);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
