// Crash-safe checkpointing and failure containment of the experiment
// runner (DESIGN.md §10): interrupted-then-resumed campaigns must be
// bit-identical to uninterrupted ones at every thread count, corrupt
// journals must degrade to rerunning the affected cells, fingerprint
// mismatches must name the diverged component, and keep-going must
// quarantine a failing policy without perturbing anyone else's numbers.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/sharded_cost_model.hpp"
#include "fault/fault.hpp"
#include "sim/experiment.hpp"
#include "sim/sharded.hpp"
#include "topology/fat_tree.hpp"
#include "util/checksum.hpp"
#include "util/require.hpp"
#include "workload/streaming.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {
namespace {

// ---------------------------------------------------------------------------
// Test policies.
// ---------------------------------------------------------------------------

/// Always throws a deterministic (non-retryable) error. The display name
/// is configurable so a test can impersonate a healthy policy (policy
/// lists are fingerprinted by name) and prove a resumed cell never reran.
class ThrowingPolicy final : public MigrationPolicy {
 public:
  explicit ThrowingPolicy(std::string name = "Thrower")
      : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<ThrowingPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel&, SimState&) override {
    throw PpdcError("boom: deterministic policy failure");
  }

 private:
  std::string name_;
};

/// Fails with TransientError until the runner's retry path hands it a
/// fresh per-attempt stream via reseed() — the minimal "transient
/// condition that heals on retry".
class FlakyPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "Flaky"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<FlakyPolicy>(*this);
  }
  void reseed(Rng& attempt_rng) override {
    attempt_rng.uniform_int(0, 100);  // consume the resplit stream
    healed_ = true;
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    if (!healed_) throw TransientError("flaky: transient hiccup");
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    return d;
  }

 private:
  bool healed_ = false;
};

/// Completes cleanly but reports budget-truncated solves, so its jobs
/// must journal as kTruncated rather than kOk.
class TruncatingPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "Truncating"; }
  std::unique_ptr<MigrationPolicy> clone() const override {
    return std::make_unique<TruncatingPolicy>(*this);
  }
  EpochDecision on_epoch(const CostModel& model, SimState& state) override {
    EpochDecision d;
    d.comm_cost = model.communication_cost(state.placement);
    d.truncated_solves = 1;
    return d;
  }
};

// ---------------------------------------------------------------------------
// Fixture: a small grid whose full run takes well under a second.
// ---------------------------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : topo_(build_fat_tree(4)), apsp_(topo_.graph) {}

  ExperimentConfig base_config() const {
    ExperimentConfig cfg;
    cfg.trials = 3;
    cfg.seed = 7;
    cfg.workload.num_pairs = 12;
    cfg.sfc_length = 2;
    cfg.threads = 1;
    cfg.sim.hours = 4;
    return cfg;
  }

  std::string journal_path(const std::string& name) const {
    const std::string path = ::testing::TempDir() + "ppdc_" + name + ".jnl";
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
  }

  static void truncate_file(const std::string& path, std::size_t size) {
    std::filesystem::resize_file(path, size);
  }

  static void flip_byte(const std::string& path, std::size_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  Topology topo_;
  AllPairs apsp_;
  NoMigrationPolicy none_;
  ParetoMigrationPolicy pareto_{1e4};
};

/// Bit-exact PolicyStats comparison: EXPECT_EQ on every double.
void expect_same(const MeanCi& a, const MeanCi& b, const std::string& what) {
  EXPECT_EQ(a.mean, b.mean) << what << ".mean";
  EXPECT_EQ(a.ci95, b.ci95) << what << ".ci95";
}

void expect_same(const PolicyStats& a, const PolicyStats& b) {
  EXPECT_EQ(a.name, b.name);
  expect_same(a.total_cost, b.total_cost, a.name + " total_cost");
  expect_same(a.comm_cost, b.comm_cost, a.name + " comm_cost");
  expect_same(a.migration_cost, b.migration_cost, a.name + " migration_cost");
  expect_same(a.vnf_migrations, b.vnf_migrations, a.name + " vnf_migrations");
  expect_same(a.vm_migrations, b.vm_migrations, a.name + " vm_migrations");
  expect_same(a.recovery_migrations, b.recovery_migrations,
              a.name + " recovery_migrations");
  expect_same(a.recovery_cost, b.recovery_cost, a.name + " recovery_cost");
  expect_same(a.quarantined_flow_epochs, b.quarantined_flow_epochs,
              a.name + " quarantined_flow_epochs");
  expect_same(a.quarantine_penalty, b.quarantine_penalty,
              a.name + " quarantine_penalty");
  expect_same(a.downtime_epochs, b.downtime_epochs,
              a.name + " downtime_epochs");
  expect_same(a.truncated_solves, b.truncated_solves,
              a.name + " truncated_solves");
  expect_same(a.shard_resolves, b.shard_resolves,
              a.name + " shard_resolves");
  expect_same(a.shard_holds, b.shard_holds, a.name + " shard_holds");
  expect_same(a.quarantined_shard_epochs, b.quarantined_shard_epochs,
              a.name + " quarantined_shard_epochs");
  expect_same(a.shard_retries, b.shard_retries, a.name + " shard_retries");
  expect_same(a.shard_penalty, b.shard_penalty, a.name + " shard_penalty");
  ASSERT_EQ(a.hourly_cost.size(), b.hourly_cost.size());
  for (std::size_t h = 0; h < a.hourly_cost.size(); ++h) {
    expect_same(a.hourly_cost[h], b.hourly_cost[h],
                a.name + " hourly_cost[" + std::to_string(h) + "]");
    expect_same(a.hourly_migrations[h], b.hourly_migrations[h],
                a.name + " hourly_migrations[" + std::to_string(h) + "]");
  }
  EXPECT_EQ(a.completed_trials, b.completed_trials) << a.name;
  EXPECT_EQ(a.failures.size(), b.failures.size()) << a.name;
}

void expect_same(const std::vector<PolicyStats>& a,
                 const std::vector<PolicyStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same(a[i], b[i]);
}

// ---------------------------------------------------------------------------
// Journal contents after an uninterrupted checkpointed run.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, JournalRecordsEveryCellOfTheGrid) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("full");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  run_experiment(topo_, apsp_, cfg, policies);

  const JournalContents contents = read_journal(cfg.checkpoint_path);
  EXPECT_FALSE(contents.tail_dropped);
  EXPECT_EQ(contents.dims.trials, 3u);
  EXPECT_EQ(contents.dims.policies, 2u);
  EXPECT_EQ(contents.dims.hours, 4u);
  EXPECT_EQ(contents.fingerprint, fingerprint_experiment(topo_, cfg, policies));
  ASSERT_EQ(contents.records.size(), 6u);
  ASSERT_EQ(contents.record_offsets.size(), 6u);
  for (const JobRecord& rec : contents.records) {
    EXPECT_EQ(rec.outcome, JobOutcome::kOk);
    EXPECT_EQ(rec.attempts, 1u);
    EXPECT_EQ(rec.policy_name,
              policies[rec.policy]->name());
    EXPECT_EQ(rec.stats.runs(), 1u);  // single-trial bundle
    EXPECT_TRUE(rec.error.empty());
  }
}

// ---------------------------------------------------------------------------
// The headline contract: interrupt mid-grid, resume, bit-identical — at
// one worker and at four.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, ResumeAfterMidRunInterruptionIsBitIdentical) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  // Produce a complete journal once; its record offsets let us simulate a
  // SIGKILL after exactly K durable appends (every prefix of a journal is
  // a valid journal — that is the atomic-append contract).
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("resume");
  run_experiment(topo_, apsp_, cfg, policies);
  const JournalContents full = read_journal(cfg.checkpoint_path);
  ASSERT_EQ(full.record_offsets.size(), 6u);
  std::string bytes;
  {
    std::ifstream in(cfg.checkpoint_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }

  for (const int threads : {1, 4}) {
    for (const std::size_t survivors : {std::size_t{1}, std::size_t{4}}) {
      {
        std::ofstream out(cfg.checkpoint_path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(
                      full.record_offsets[survivors]));
      }
      ExperimentConfig resumed = base_config();
      resumed.checkpoint_path = cfg.checkpoint_path;
      resumed.threads = threads;
      const std::vector<PolicyStats> stats =
          run_experiment(topo_, apsp_, resumed, policies);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " survivors=" +
                   std::to_string(survivors));
      expect_same(stats, reference);

      // The resumed run re-journals the rerun cells: the journal is
      // complete again and a second resume runs zero jobs.
      const JournalContents after = read_journal(cfg.checkpoint_path);
      EXPECT_EQ(after.records.size(), 6u);
    }
  }
}

TEST_F(CheckpointTest, FullyJournaledRunResumesWithoutRunningAnyJob) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("noop");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> first =
      run_experiment(topo_, apsp_, cfg, policies);
  // Resume with impostor prototypes that carry the same names (so the
  // fingerprint matches) but throw on first use: with every cell already
  // journaled, no job runs, nothing throws, and the result comes purely
  // from the journal — bit-identical to the first pass.
  ThrowingPolicy fake_none("NoMigration");
  ThrowingPolicy fake_pareto("mPareto");
  const std::vector<PolicyStats> second =
      run_experiment(topo_, apsp_, cfg, {&fake_none, &fake_pareto});
  expect_same(second, first);
}

// ---------------------------------------------------------------------------
// Cancellation (the SIGINT/SIGTERM path).
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CancelledRunThrowsExperimentInterruptedAndResumes) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("cancel");
  std::atomic<bool> cancel{true};  // flag already raised: stop immediately
  cfg.sim.cancel = &cancel;
  try {
    run_experiment(topo_, apsp_, cfg, policies);
    FAIL() << "expected ExperimentInterrupted";
  } catch (const ExperimentInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find(cfg.checkpoint_path),
              std::string::npos)
        << "the interruption message must name the journal";
    EXPECT_NE(e.partial_summary().find("NoMigration"), std::string::npos);
    EXPECT_NE(e.partial_summary().find("0/3"), std::string::npos);
  }

  // Nothing completed, so nothing was journaled; the resume runs the full
  // grid and matches the uninterrupted reference bit for bit.
  EXPECT_TRUE(read_journal(cfg.checkpoint_path).records.empty());
  cancel.store(false);
  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, policies);
  expect_same(resumed, reference);
}

TEST_F(CheckpointTest, CancellationWithoutJournalSaysWorkIsLost) {
  ExperimentConfig cfg = base_config();
  std::atomic<bool> cancel{true};
  cfg.sim.cancel = &cancel;
  try {
    run_experiment(topo_, apsp_, cfg, {&none_});
    FAIL() << "expected ExperimentInterrupted";
  } catch (const ExperimentInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find("no checkpoint journal"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Corruption handling.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CorruptRecordTailIsDroppedAndRerunOnResume) {
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, base_config(), policies);

  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("corrupt");
  run_experiment(topo_, apsp_, cfg, policies);
  const JournalContents full = read_journal(cfg.checkpoint_path);
  ASSERT_EQ(full.records.size(), 6u);

  // Flip one byte inside the 5th record: records 5 and 6 must be dropped
  // (frame boundaries after a corrupt frame cannot be trusted).
  flip_byte(cfg.checkpoint_path, full.record_offsets[4] + 12);
  const JournalContents damaged = read_journal(cfg.checkpoint_path);
  EXPECT_TRUE(damaged.tail_dropped);
  EXPECT_EQ(damaged.records.size(), 4u);
  EXPECT_NE(damaged.warning.find("CRC32"), std::string::npos);
  EXPECT_NE(damaged.warning.find("byte offset"), std::string::npos);

  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, policies);
  expect_same(resumed, reference);
  EXPECT_FALSE(read_journal(cfg.checkpoint_path).tail_dropped);
}

TEST_F(CheckpointTest, CorruptHeaderIsNotRecoverable) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("badheader");
  const std::vector<const MigrationPolicy*> policies{&none_};
  run_experiment(topo_, apsp_, cfg, policies);
  flip_byte(cfg.checkpoint_path, 16);  // inside the header frame
  EXPECT_THROW(read_journal(cfg.checkpoint_path), PpdcError);
  EXPECT_THROW(run_experiment(topo_, apsp_, cfg, policies), PpdcError);
}

TEST_F(CheckpointTest, NonJournalFileIsRejectedByMagic) {
  const std::string path = journal_path("notajournal");
  std::ofstream(path) << "this is not a journal\n";
  EXPECT_THROW(read_journal(path), PpdcError);
}

// ---------------------------------------------------------------------------
// Fingerprint validation.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, FingerprintMismatchNamesTheDivergedComponent) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("fingerprint");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  run_experiment(topo_, apsp_, cfg, policies);

  {
    ExperimentConfig other = cfg;
    other.workload.num_pairs = 13;  // different workload, same everything else
    try {
      run_experiment(topo_, apsp_, other, policies);
      FAIL() << "expected CheckpointMismatchError";
    } catch (const CheckpointMismatchError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("workload"), std::string::npos) << what;
      EXPECT_EQ(what.find("topology"), std::string::npos) << what;
      EXPECT_EQ(what.find("policy list"), std::string::npos) << what;
    }
  }
  {
    try {
      run_experiment(topo_, apsp_, cfg, {&pareto_, &none_});  // reordered
      FAIL() << "expected CheckpointMismatchError";
    } catch (const CheckpointMismatchError& e) {
      EXPECT_NE(std::string(e.what()).find("policy list"), std::string::npos);
    }
  }
  {
    ExperimentConfig other = cfg;
    other.sim.hours = 5;
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
  }
  {
    // Thread count is wall-clock-only: it must NOT invalidate the journal.
    ExperimentConfig other = cfg;
    other.threads = 4;
    other.keep_going = true;
    other.retry_limit = 2;
    EXPECT_NO_THROW(run_experiment(topo_, apsp_, other, policies));
  }
}

TEST_F(CheckpointTest, ShardedConfigIsFingerprintedExceptThreads) {
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("sharded-fp");
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  run_experiment(topo_, apsp_, cfg, policies);

  {
    // Turning the sharded streaming engine on is a different experiment.
    ExperimentConfig other = cfg;
    other.sharded.enabled = true;
    try {
      run_experiment(topo_, apsp_, other, policies);
      FAIL() << "expected CheckpointMismatchError";
    } catch (const CheckpointMismatchError& e) {
      EXPECT_NE(std::string(e.what()).find("sim config"), std::string::npos)
          << e.what();
    }
  }
  {
    // So is any churn / staleness knob, even with the engine off — stale
    // journals must be rejected by name, never silently merged.
    ExperimentConfig other = cfg;
    other.sharded.churn.departure_prob = 0.1;
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
    other = cfg;
    other.sharded.resolve_churn_fraction = 0.5;
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
    other = cfg;
    other.sharded.max_staleness = 9;
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
    other = cfg;
    other.sharded.quarantine_sla = 1.5;  // shapes total cost
    EXPECT_THROW(run_experiment(topo_, apsp_, other, policies),
                 CheckpointMismatchError);
  }
  {
    // Shard worker threads and the epoch-journal knobs are wall-clock-only
    // (bit-identical results): they must NOT invalidate the journal.
    ExperimentConfig other = cfg;
    other.sharded.threads = 8;
    other.sharded.epoch_journal = journal_path("sharded-fp-epoch");
    other.sharded.epoch_checkpoint_every = 3;
    EXPECT_NO_THROW(run_experiment(topo_, apsp_, other, policies));
  }
}

TEST_F(CheckpointTest, FingerprintDiffReportsComponentsInFixedOrder) {
  ExperimentFingerprint a;
  ExperimentFingerprint b;
  EXPECT_TRUE(a.diff(b).empty());
  b.topology = 1;
  b.sim_config = 2;
  const std::vector<std::string> names = a.diff(b);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "topology");
  EXPECT_EQ(names[1], "sim config");
}

// ---------------------------------------------------------------------------
// Failure containment: keep-going quarantine and retries.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, KeepGoingQuarantinesOnlyTheFailingPolicy) {
  ThrowingPolicy thrower;
  const std::vector<PolicyStats> solo =
      run_experiment(topo_, apsp_, base_config(), {&none_, &pareto_});

  ExperimentConfig cfg = base_config();
  cfg.keep_going = true;
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, cfg, {&none_, &thrower, &pareto_});
  ASSERT_EQ(stats.size(), 3u);

  // The healthy policies are bit-identical to a run without the thrower.
  expect_same(stats[0], solo[0]);
  expect_same(stats[2], solo[1]);

  // The thrower is fully quarantined: no samples, every trial recorded.
  EXPECT_EQ(stats[1].completed_trials, 0);
  ASSERT_EQ(stats[1].failures.size(), 3u);
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_EQ(stats[1].failures[static_cast<std::size_t>(trial)].trial, trial);
    EXPECT_EQ(stats[1].failures[static_cast<std::size_t>(trial)].attempts, 1);
    EXPECT_NE(stats[1].failures[static_cast<std::size_t>(trial)].error.find(
                  "boom"),
              std::string::npos);
  }
}

TEST_F(CheckpointTest, WithoutKeepGoingTheFirstGridOrderErrorSurfaces) {
  ThrowingPolicy thrower;
  ExperimentConfig cfg = base_config();
  try {
    run_experiment(topo_, apsp_, cfg, {&none_, &thrower});
    FAIL() << "expected PpdcError";
  } catch (const PpdcError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST_F(CheckpointTest, FailedCellsJournalAsFailedAndRerunOnResume) {
  ThrowingPolicy thrower;
  ExperimentConfig cfg = base_config();
  cfg.keep_going = true;
  cfg.checkpoint_path = journal_path("failed");
  const std::vector<const MigrationPolicy*> policies{&none_, &thrower};
  run_experiment(topo_, apsp_, cfg, policies);

  const JournalContents contents = read_journal(cfg.checkpoint_path);
  ASSERT_EQ(contents.records.size(), 6u);
  int failed = 0;
  for (const JobRecord& rec : contents.records) {
    if (rec.outcome != JobOutcome::kFailed) continue;
    ++failed;
    EXPECT_EQ(rec.policy, 1u);
    EXPECT_NE(rec.error.find("boom"), std::string::npos);
    EXPECT_EQ(rec.stats.runs(), 0u);  // stats absent, not zero
  }
  EXPECT_EQ(failed, 3);

  // Failed records are rerun on resume (they might have been transient);
  // here they deterministically fail again and the result is unchanged.
  const std::vector<PolicyStats> resumed =
      run_experiment(topo_, apsp_, cfg, policies);
  EXPECT_EQ(resumed[1].completed_trials, 0);
  EXPECT_EQ(resumed[1].failures.size(), 3u);
}

TEST_F(CheckpointTest, TransientErrorRetriesWithReseedAndSucceeds) {
  FlakyPolicy flaky;
  ExperimentConfig cfg = base_config();
  cfg.retry_limit = 1;
  cfg.checkpoint_path = journal_path("retry");
  const std::vector<const MigrationPolicy*> policies{&none_, &flaky};
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, cfg, policies);
  EXPECT_EQ(stats[1].completed_trials, 3);
  EXPECT_TRUE(stats[1].failures.empty());

  const JournalContents contents = read_journal(cfg.checkpoint_path);
  for (const JobRecord& rec : contents.records) {
    if (rec.policy_name != "Flaky") continue;
    EXPECT_EQ(rec.outcome, JobOutcome::kOk);
    EXPECT_EQ(rec.attempts, 2u);  // attempt 0 threw, attempt 1 healed
  }
}

TEST_F(CheckpointTest, TransientErrorWithoutRetryBudgetFails) {
  FlakyPolicy flaky;
  ExperimentConfig cfg = base_config();
  cfg.keep_going = true;  // retry_limit stays 0
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, cfg, {&flaky});
  EXPECT_EQ(stats[0].completed_trials, 0);
  ASSERT_EQ(stats[0].failures.size(), 3u);
  EXPECT_EQ(stats[0].failures[0].attempts, 1);
  EXPECT_NE(stats[0].failures[0].error.find("flaky"), std::string::npos);
}

TEST_F(CheckpointTest, BudgetTruncatedJobsJournalAsTruncated) {
  TruncatingPolicy truncating;
  ExperimentConfig cfg = base_config();
  cfg.checkpoint_path = journal_path("truncated");
  run_experiment(topo_, apsp_, cfg, {&truncating});
  const JournalContents contents = read_journal(cfg.checkpoint_path);
  ASSERT_EQ(contents.records.size(), 3u);
  for (const JobRecord& rec : contents.records) {
    EXPECT_EQ(rec.outcome, JobOutcome::kTruncated);
    EXPECT_EQ(rec.stats.runs(), 1u);  // truncated still has stats
  }
  EXPECT_STREQ(to_string(JobOutcome::kTruncated), "truncated");
  EXPECT_STREQ(to_string(JobOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(JobOutcome::kFailed), "failed");
}

// ---------------------------------------------------------------------------
// Epoch-granular journal of the sharded engine (DESIGN.md §15).
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, EpochJournalRoundTripAndFingerprint) {
  const ShardMap map = ShardMap::by_ingress_pod(topo_);
  const std::string path = ::testing::TempDir() + "ppdc_epoch_rt.ejl";
  remove_epoch_journal(path);

  SimConfig sim;
  sim.hours = 6;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 1;
  sharded.epoch_journal = path;
  VmPlacementConfig wl;
  wl.num_pairs = 40;

  NoMigrationPolicy proto;
  StreamingWorkload workload(topo_, wl, StreamingChurnConfig{}, Rng(3));
  const std::uint64_t fp = fingerprint_sharded_run(
      workload.snapshot(), sim, sharded, 3, map.num_shards(), proto.name());
  run_sharded_simulation(apsp_, map, workload, 3, sim, sharded, proto);

  EpochJournalState state;
  ASSERT_TRUE(read_epoch_journal(path, state));
  EXPECT_EQ(state.fingerprint, fp);
  EXPECT_EQ(state.hours, 6u);
  // Written after every epoch but the last (the run was about to finish).
  EXPECT_EQ(state.epochs.size(), 5u);
  ASSERT_EQ(state.shards.size(), static_cast<std::size_t>(map.num_shards()));
  for (const ShardResumeState& st : state.shards) {
    EXPECT_EQ(st.loop.placement.size(), 3u);
    EXPECT_EQ(st.loop.rung, DegradationRung::kFull);
    EXPECT_EQ(st.loop.fail_streak, 0);
  }
  EXPECT_FALSE(state.workload.flows.empty());
  EXPECT_FALSE(state.merged_initial.empty());

  // Byte-level round trip: writing the parsed state back and re-reading
  // reproduces every field.
  write_epoch_journal(path, state);
  EpochJournalState again;
  ASSERT_TRUE(read_epoch_journal(path, again));
  EXPECT_EQ(again.fingerprint, state.fingerprint);
  EXPECT_EQ(again.merged_initial, state.merged_initial);
  ASSERT_EQ(again.epochs.size(), state.epochs.size());
  for (std::size_t e = 0; e < state.epochs.size(); ++e) {
    EXPECT_EQ(again.epochs[e].decision.comm_cost,
              state.epochs[e].decision.comm_cost);
    EXPECT_EQ(again.epochs[e].ladder_steps, state.epochs[e].ladder_steps);
  }
  EXPECT_EQ(again.shards[0].loop.placement, state.shards[0].loop.placement);
  EXPECT_EQ(again.workload.rng, state.workload.rng);
  EXPECT_EQ(again.workload.next_index, state.workload.next_index);

  remove_epoch_journal(path);
  EXPECT_FALSE(read_epoch_journal(path, again));  // gone: fresh start
}

TEST_F(CheckpointTest, EpochJournalMismatchOrCorruptionStartsFresh) {
  const ShardMap map = ShardMap::by_ingress_pod(topo_);
  const std::string path = ::testing::TempDir() + "ppdc_epoch_stale.ejl";
  remove_epoch_journal(path);

  SimConfig sim;
  sim.hours = 8;
  sim.ladder.enabled = true;
  StreamingChurnConfig churn;
  churn.arrivals_per_epoch = 4;
  churn.departure_prob = 0.05;
  churn.rerate_prob = 0.1;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.threads = 2;
  sharded.churn = churn;
  sharded.epoch_journal = path;
  VmPlacementConfig wl;
  wl.num_pairs = 40;
  ParetoMigrationPolicy proto(1e3);

  auto run = [&](std::uint64_t seed, bool with_journal) {
    ShardedStreamingConfig cfg = sharded;
    if (!with_journal) cfg.epoch_journal.clear();
    StreamingWorkload w(topo_, wl, churn, Rng(seed));
    return run_sharded_simulation(apsp_, map, w, 3, sim, cfg, proto);
  };

  const SimTrace reference = run(5, false);

  // A completed seed-9 run leaves its journal behind (the bare engine
  // never deletes it; the experiment runner does). A seed-5 run handed
  // that stale journal must detect the fingerprint mismatch and start
  // fresh — bit-identical to the journal-free reference.
  run(9, true);
  const SimTrace after_mismatch = run(5, true);
  EXPECT_EQ(after_mismatch.total_cost, reference.total_cost);
  EXPECT_EQ(after_mismatch.total_comm_cost, reference.total_comm_cost);

  // Corrupt tail (the previous run refreshed the journal to seed-5): a
  // torn write must degrade to a fresh start, never a poisoned resume.
  flip_byte(path, std::filesystem::file_size(path) - 3);
  const SimTrace after_corruption = run(5, true);
  EXPECT_EQ(after_corruption.total_cost, reference.total_cost);
  EXPECT_EQ(after_corruption.total_comm_cost, reference.total_comm_cost);
  remove_epoch_journal(path);
}

TEST_F(CheckpointTest, ExperimentRunnerDerivesAndCleansEpochJournals) {
  ExperimentConfig cfg = base_config();
  cfg.sharded.enabled = true;
  cfg.sharded.churn.arrivals_per_epoch = 3;
  cfg.sharded.churn.departure_prob = 0.05;
  const std::vector<const MigrationPolicy*> policies{&none_, &pareto_};
  const std::vector<PolicyStats> reference =
      run_experiment(topo_, apsp_, cfg, policies);

  ExperimentConfig with = cfg;
  with.sharded.epoch_journal = ::testing::TempDir() + "ppdc_cell.ejl";
  // Pre-seed one derived cell path with garbage: that cell must warn,
  // start fresh, and the campaign still matches bit for bit.
  std::ofstream(with.sharded.epoch_journal + ".t1p0") << "not a journal";
  const std::vector<PolicyStats> stats =
      run_experiment(topo_, apsp_, with, policies);
  expect_same(stats, reference);
  // Epoch journals are per-cell scratch: every derived path is removed
  // once its cell's terminal record lands.
  for (int trial = 0; trial < 3; ++trial) {
    for (int p = 0; p < 2; ++p) {
      const std::string cell = with.sharded.epoch_journal + ".t" +
                               std::to_string(trial) + "p" +
                               std::to_string(p);
      EXPECT_FALSE(std::filesystem::exists(cell)) << cell;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden journal bytes and fingerprints. Both journals are resumed across
// builds, so their byte layout and the fingerprint hashes that key them
// are a compatibility contract: a refactor of the codecs must reproduce
// these pins exactly (or bump kVersion / kEpochVersion and re-pin).
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// A trace whose 20 per-run metrics are pairwise distinct (and distinct
/// per `salt`), so a codec that swapped or dropped any two of them would
/// change the journal bytes.
SimTrace distinct_trace(int hours, int salt) {
  SimTrace t;
  t.total_cost = 101.5 + salt;
  t.total_comm_cost = 60.25 + salt;
  t.total_migration_cost = 17.125 + salt;
  t.total_vnf_migrations = 3 + salt;
  t.total_vm_migrations = 4 + salt;
  t.total_recovery_migrations = 5 + salt;
  t.total_recovery_cost = 6.5 + salt;
  t.quarantined_flow_epochs = 7 + salt;
  t.total_quarantine_penalty = 8.75 + salt;
  t.downtime_epochs = 9 + salt;
  t.total_truncated_solves = 10 + salt;
  t.ladder_transitions = 11 + salt;
  t.refresh_only_epochs = 12 + salt;
  t.frozen_epochs = 13 + salt;
  t.policy_failures = 14 + salt;
  t.total_shard_resolves = 15 + salt;
  t.total_shard_holds = 16 + salt;
  t.quarantined_shard_epochs = 17 + salt;
  t.total_shard_retries = 18 + salt;
  t.total_shard_penalty = 19.5 + salt;
  for (int h = 0; h < hours; ++h) {
    EpochDecision d;
    d.comm_cost = 20.0 + h + 3 * salt;
    d.migration_cost = 0.25 * h + salt;
    d.vnf_migrations = h + salt;
    d.vm_migrations = 2 * h;
    t.epochs.push_back(d);
  }
  return t;
}

/// A two-run bundle: every accumulator carries a distinct count, mean,
/// m2, min and max.
StatsBundle distinct_bundle(int hours, int salt) {
  StatsBundle b(static_cast<std::size_t>(hours));
  b.add(distinct_trace(hours, salt));
  b.add(distinct_trace(hours, salt + 7));
  return b;
}

/// An epoch-journal state with 2 shards, non-empty group snapshots and
/// free lists, and pairwise-distinct decision fields.
EpochJournalState golden_epoch_state() {
  EpochJournalState s;
  s.fingerprint = 0x0123456789ABCDEFULL;
  s.hours = 6;
  s.merged_initial = {3, 1, 4};
  for (int e = 0; e < 2; ++e) {
    EpochRecord rec;
    EpochDecision& d = rec.decision;
    d.comm_cost = 100.5 + e;
    d.migration_cost = 2.25 + e;
    d.migration_distance = 3.125 + e;
    d.vnf_migrations = 4 + e;
    d.vm_migrations = 5 + e;
    d.truncated_solves = 6 + e;
    d.switch_failures = 7 + e;
    d.link_failures = 8 + e;
    d.repairs = 9 + e;
    d.recovery_migrations = 10 + e;
    d.recovery_cost = 11.5 + e;
    d.quarantined_flows = 12 + e;
    d.quarantine_penalty = 13.75 + e;
    d.service_down = e == 1;
    d.rung = e == 0 ? DegradationRung::kRefreshOnly : DegradationRung::kFrozen;
    d.policy_failed = e == 0;
    d.resolved_shards = 14 + e;
    d.held_shards = 15 + e;
    d.quarantined_shards = 16 + e;
    d.shard_retries = 17 + e;
    d.shard_penalty = 18.5 + e;
    rec.ladder_steps = static_cast<std::uint32_t>(19 + e);
    s.epochs.push_back(rec);
  }
  for (int k = 0; k < 2; ++k) {
    ShardResumeState st;
    ShardedCostModel::ShardSnapshot& sh = st.shard;
    sh.flows = {VmFlow{20 + k, 21 + k, 1.5 + k, k},
                VmFlow{22 + k, 23 + k, 2.5 + k, 1 - k}};
    sh.base_rates = {1.5 + k, 0.0};
    sh.groups = {k, 1 - k};
    sh.global_ids = {FlowId{2 * k}, FlowId{2 * k + 1}};
    sh.free_locals = {FlowId{1}};
    sh.live = 1;
    CostModel::GroupSnapshot& g = sh.model;
    g.num_groups = 2;
    g.base_rates = {0.5 + k, 0.75};
    g.groups = {0, 1};
    g.group_rows = {0, 1};
    g.row_groups = {1, 0};
    g.group_ingress = {1.25, 2.25 + k, 3.25};
    g.group_egress = {4.5, 5.5 + k};
    g.last_scales = {0.2 + k, 0.9};
    g.snap_src = {20 + k, 22 + k};
    g.snap_dst = {21 + k, 23 + k};
    st.loop.placement = {5 + k, 6 + k, 7 + k};
    st.loop.last_comm = 42.5 + k;
    st.loop.staleness = 2 + k;
    st.loop.churned = 3 + k;
    st.loop.resync_pending = k == 1;
    st.loop.rung = static_cast<DegradationRung>(k + 1);
    st.loop.clean_streak = 4 + k;
    st.loop.fail_streak = 5 + k;
    s.shards.push_back(st);
  }
  s.workload.flows = {VmFlow{30, 31, 3.5, 0}, VmFlow{32, 33, 0.0, 1},
                      VmFlow{34, 35, 4.5, 1}};
  s.workload.free_slots = {FlowId{1}};
  s.workload.next_index = 9;
  s.workload.rng = {0x1111ULL, 0x2222ULL, 0x3333ULL, 0x4444ULL};
  return s;
}

TEST_F(CheckpointTest, GoldenGridJournalBytes) {
  const std::string path = journal_path("golden-grid");
  const ExperimentFingerprint fp{0x11, 0x22, 0x33, 0x44, 0x55};
  const JournalDims dims{2, 2, 3};
  {
    CheckpointJournal journal(path, fp, dims);
    JobRecord ok;
    ok.trial = 0;
    ok.policy = 0;
    ok.outcome = JobOutcome::kOk;
    ok.policy_name = "NoMigration";
    ok.stats = distinct_bundle(3, 0);
    journal.append(ok);
    JobRecord failed;
    failed.trial = 0;
    failed.policy = 1;
    failed.outcome = JobOutcome::kFailed;
    failed.attempts = 2;
    failed.policy_name = "mPareto";
    failed.error = "boom: deterministic policy failure";
    journal.append(failed);
    JobRecord truncated;
    truncated.trial = 1;
    truncated.policy = 1;
    truncated.outcome = JobOutcome::kTruncated;
    truncated.attempts = 3;
    truncated.policy_name = "mPareto";
    truncated.stats = distinct_bundle(3, 100);
    journal.append(truncated);
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 2309u);
  EXPECT_EQ(hash64(bytes), 0xE283395037D1D36BULL)
      << "re-pin: 0x" << std::hex << std::uppercase << hash64(bytes);

  // The reader restores every record bit-exactly: journaling the parsed
  // records again reproduces the file byte for byte.
  const JournalContents contents = read_journal(path);
  EXPECT_FALSE(contents.tail_dropped);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.fingerprint, fp);
  EXPECT_EQ(contents.dims, dims);
  const std::string again = journal_path("golden-grid-again");
  {
    CheckpointJournal journal(again, fp, dims);
    for (const JobRecord& rec : contents.records) journal.append(rec);
  }
  EXPECT_EQ(slurp(again), bytes);
}

TEST_F(CheckpointTest, GoldenEpochJournalBytes) {
  const std::string path = ::testing::TempDir() + "ppdc_golden.ejl";
  remove_epoch_journal(path);
  write_epoch_journal(path, golden_epoch_state());
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 982u);
  EXPECT_EQ(hash64(bytes), 0xD02004F47529F062ULL)
      << "re-pin: 0x" << std::hex << std::uppercase << hash64(bytes);

  EpochJournalState parsed;
  ASSERT_TRUE(read_epoch_journal(path, parsed));
  ASSERT_EQ(parsed.shards.size(), 2u);
  EXPECT_EQ(parsed.shards[1].shard.free_locals.size(), 1u);
  EXPECT_EQ(parsed.shards[1].shard.model.group_ingress.size(), 3u);
  write_epoch_journal(path, parsed);
  EXPECT_EQ(slurp(path), bytes);
  remove_epoch_journal(path);
}

TEST_F(CheckpointTest, GoldenFingerprints) {
  ExperimentConfig cfg = base_config();
  cfg.trials = 5;
  cfg.seed = 11;
  cfg.workload.num_pairs = 30;
  cfg.workload.intra_rack_fraction = 0.3;
  cfg.workload.rack_zipf_s = 1.1;
  cfg.workload.rates.heavy_hi = 12.0;
  cfg.sfc_length = 3;
  SimConfig& sim = cfg.sim;
  sim.hours = 9;
  sim.diurnal.hours_per_day = 8;
  sim.diurnal.tau_min = 0.3;
  sim.diurnal.coast_offset = 2;
  sim.initial_placement.candidate_limit = 6;
  sim.rate_schedule = [](Hour) { return std::vector<double>{}; };
  sim.downtime_factor = 1.5;
  FaultEvent fail_switch;
  fail_switch.epoch = Hour{2};
  fail_switch.kind = FaultKind::kSwitchFail;
  fail_switch.node = 3;
  FaultEvent fail_link;
  fail_link.epoch = Hour{4};
  fail_link.kind = FaultKind::kLinkFail;
  fail_link.u = 1;
  fail_link.v = 5;
  sim.faults = {fail_switch, fail_link};
  sim.fault.mu = 2.0;
  sim.fault.quarantine_penalty = 0.5;
  sim.fault.placement.candidate_limit = 4;
  sim.fault.exhaustive_recovery = true;
  sim.fault.budget.wall_ms = 25.0;
  sim.ladder.enabled = true;
  sim.ladder.max_quarantined_fraction = 0.25;
  sim.ladder.trip_truncations = 3;
  sim.ladder.recovery_epochs = 4;
  sim.audit.enabled = true;
  cfg.sharded.enabled = true;
  cfg.sharded.churn.arrivals_per_epoch = 7;
  cfg.sharded.churn.departure_prob = 0.05;
  cfg.sharded.churn.rerate_prob = 0.1;
  cfg.sharded.resolve_churn_fraction = 0.2;
  cfg.sharded.max_staleness = 3;
  cfg.sharded.quarantine_sla = 1.25;

  const ExperimentFingerprint fp =
      fingerprint_experiment(topo_, cfg, {&none_, &pareto_});
  const auto pin = [](std::uint64_t actual, std::uint64_t expected,
                      const char* what) {
    EXPECT_EQ(actual, expected) << what << " re-pin: 0x" << std::hex
                                << std::uppercase << actual;
  };
  pin(fp.topology, 0xAABA240A8ED709BDULL, "topology");
  pin(fp.workload, 0x5E9C7765BD110A6AULL, "workload");
  pin(fp.fault_schedule, 0x35B61287E69112CCULL, "fault_schedule");
  pin(fp.policy_list, 0x332006C6F3F03DA2ULL, "policy_list");
  pin(fp.sim_config, 0xD4EB0CE0B8CDAE91ULL, "sim_config");
  pin(fingerprint_sharded_run(golden_epoch_state().workload, sim,
                              cfg.sharded, 3, 2, "mPareto"),
      0x01C17C753A4198E8ULL, "fingerprint_sharded_run");
}

// ---------------------------------------------------------------------------
// Hostile counts: a frame whose CRC is valid but whose length field claims
// billions of elements must be rejected by name before anything is sized
// by it — never escape as std::bad_alloc.
// ---------------------------------------------------------------------------

/// Payload offset of every [u32 length][u32 crc32][payload] frame after
/// the 8-byte magic.
std::vector<std::size_t> frame_payloads(const std::string& bytes) {
  std::vector<std::size_t> out;
  for (std::size_t pos = 8; pos + 8 <= bytes.size();) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof len);
    out.push_back(pos + 8);
    pos += 8 + len;
  }
  return out;
}

/// Overwrites the u32 at `offset` of the frame payload starting at
/// `payload` and re-seals that frame's CRC, so only the value is hostile.
void patch_u32(std::string& bytes, std::size_t payload, std::size_t offset,
               std::uint32_t value) {
  std::memcpy(bytes.data() + payload + offset, &value, sizeof value);
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data() + payload - 8, sizeof len);
  const std::uint32_t crc = crc32(bytes.data() + payload, len);
  std::memcpy(bytes.data() + payload - 4, &crc, sizeof crc);
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST_F(CheckpointTest, EpochJournalHostileVectorLengthStartsFresh) {
  const ShardMap map = ShardMap::by_ingress_pod(topo_);
  const std::string path = ::testing::TempDir() + "ppdc_epoch_hostile.ejl";
  remove_epoch_journal(path);
  SimConfig sim;
  sim.hours = 5;
  ShardedStreamingConfig sharded;
  sharded.enabled = true;
  sharded.epoch_journal = path;
  VmPlacementConfig wl;
  wl.num_pairs = 30;
  NoMigrationPolicy proto;
  auto run = [&](bool with_journal) {
    ShardedStreamingConfig cfg = sharded;
    if (!with_journal) cfg.epoch_journal.clear();
    StreamingWorkload w(topo_, wl, StreamingChurnConfig{}, Rng(4));
    return run_sharded_simulation(apsp_, map, w, 3, sim, cfg, proto);
  };
  const SimTrace reference = run(false);
  run(true);  // leaves its journal behind

  // The state frame opens with shard 0's flow-vector length.
  std::string bytes = slurp(path);
  const std::vector<std::size_t> frames = frame_payloads(bytes);
  ASSERT_EQ(frames.size(), 1u + static_cast<std::size_t>(sim.hours - 1) + 1u);
  patch_u32(bytes, frames.back(), 0, 0xFFFFFFFFu);
  spit(path, bytes);

  EpochJournalState out;
  try {
    read_epoch_journal(path, out);
    FAIL() << "expected PpdcError";
  } catch (const PpdcError& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }

  ::testing::internal::CaptureStderr();
  const SimTrace resumed = run(true);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("starting the sharded run fresh"), std::string::npos)
      << err;
  EXPECT_EQ(resumed.total_cost, reference.total_cost);
  EXPECT_EQ(resumed.total_comm_cost, reference.total_comm_cost);
  remove_epoch_journal(path);
}

TEST_F(CheckpointTest, GridJournalHostileHourCountDropsTheTail) {
  const std::string path = journal_path("hostile-grid");
  {
    CheckpointJournal journal(path, ExperimentFingerprint{1, 2, 3, 4, 5},
                              JournalDims{1, 1, 2});
    JobRecord ok;
    ok.policy_name = "NoMigration";
    ok.stats = distinct_bundle(2, 0);
    journal.append(ok);
  }
  std::string bytes = slurp(path);
  const std::vector<std::size_t> frames = frame_payloads(bytes);
  ASSERT_EQ(frames.size(), 2u);
  // Header: version, 5 fingerprint words, trials, policies, hours.
  patch_u32(bytes, frames[0], 4 + 5 * 8 + 2 * 4, 0xFFFFFFFFu);
  // Record: trial, policy, outcome, attempts, name, error, has_stats, hours.
  patch_u32(bytes, frames[1], 4 + 4 + 1 + 4 + (4 + 11) + 4 + 1, 0xFFFFFFFFu);
  spit(path, bytes);

  const JournalContents contents = read_journal(path);
  EXPECT_EQ(contents.dims.hours, 0xFFFFFFFFu);
  EXPECT_TRUE(contents.tail_dropped);
  EXPECT_TRUE(contents.records.empty());
  EXPECT_NE(contents.warning.find("byte offset"), std::string::npos)
      << contents.warning;
}

}  // namespace
}  // namespace ppdc
