#include "sim/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "core/cost_model.hpp"
#include "fault/fault.hpp"
#include "io/serialize.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "sim/sharded.hpp"
#include "topology/topology.hpp"
#include "util/checksum.hpp"
#include "util/ids.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "workload/streaming.hpp"
#include "workload/traffic.hpp"
#include "workload/vm_placement.hpp"

namespace ppdc {

namespace {

constexpr char kMagic[8] = {'P', 'P', 'D', 'C', 'J', 'N', 'L', '1'};
// Version 2: StatsBundle grew the graceful-degradation ladder scalars
// (ladder_transitions, refresh_only, frozen, policy_failures) and the
// sim-config fingerprint covers the ladder/audit knobs. Version 3:
// StatsBundle grew the shard scalars (shard_resolves, shard_holds) and
// the sim-config fingerprint covers the sharded streaming knobs (churn
// intensities, resolve_churn_fraction, max_staleness). Version 4:
// StatsBundle grew the shard failure-containment scalars
// (shard_quarantines, shard_retries, shard_penalty) and the sim-config
// fingerprint covers ShardedStreamingConfig::quarantine_sla. Older
// journals are rejected with a clear message — their records cannot be
// merged bit-exactly into the wider bundle. A record serializes
// StatsBundle::metrics in the order of the metric table in
// sim/experiment.cpp, so adding a metric there bumps this version.
constexpr std::uint32_t kVersion = 4;

// ---------------------------------------------------------------------------
// Little serialization layer: fixed-width fields appended to a string,
// and a bounds-checked cursor for reading them back. Host-endian by
// design (journals are same-machine scratch artifacts).
// ---------------------------------------------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_i32(std::string& out, std::int32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, checked_cast<std::uint32_t>(s.size(), "journal string length"));
  out.append(s);
}

/// Encoded size of one RunningStats: n, mean, m2, min, max.
constexpr std::size_t kRunningStatsBytes = 5 * 8;

void put_running_stats(std::string& out, const RunningStats& s) {
  const RunningStats::Raw raw = s.raw();
  put_u64(out, raw.n);
  put_f64(out, raw.mean);
  put_f64(out, raw.m2);
  put_f64(out, raw.min);
  put_f64(out, raw.max);
}

/// Bounds-checked reader over a byte range; every overrun throws with the
/// absolute byte offset so corruption reports are actionable.
class Cursor {
 public:
  Cursor(const std::string& bytes, std::size_t begin, std::size_t end)
      : bytes_(&bytes), pos_(begin), end_(end) {}

  std::size_t pos() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ == end_; }

  void raw(void* out, std::size_t len) {
    PPDC_REQUIRE(len <= end_ - pos_,
                 "journal payload truncated at byte offset " +
                     std::to_string(pos_));
    std::memcpy(out, bytes_->data() + pos_, len);
    pos_ += len;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Reads a u32 element count and rejects it, naming its byte offset,
  /// when that many elements of `bytes_each` bytes would overrun the frame
  /// — before the caller sizes anything by it.
  std::uint32_t count(std::size_t bytes_each) {
    const std::size_t at = pos_;
    const std::uint32_t n = u32();
    PPDC_REQUIRE(n <= (end_ - pos_) / bytes_each,
                 "journal count " + std::to_string(n) + " at byte offset " +
                     std::to_string(at) + " overruns its frame (" +
                     std::to_string(end_ - pos_) + " byte(s) left)");
    return n;
  }
  std::string str() {
    const std::uint32_t len = count(1);
    std::string s(bytes_->data() + pos_, len);
    pos_ += len;
    return s;
  }
  RunningStats running_stats() {
    RunningStats::Raw raw;
    raw.n = u64();
    raw.mean = f64();
    raw.m2 = f64();
    raw.min = f64();
    raw.max = f64();
    return RunningStats::from_raw(raw);
  }

 private:
  const std::string* bytes_;
  std::size_t pos_;
  std::size_t end_;
};

/// Wire codec of one element type of a length-prefixed vector: its
/// encoded size, writer and reader.
template <typename T>
struct Wire;

template <>
struct Wire<std::int32_t> {
  static constexpr std::size_t kBytes = 4;
  static void put(std::string& out, std::int32_t v) { put_i32(out, v); }
  static std::int32_t get(Cursor& c) { return c.i32(); }
};

template <>
struct Wire<double> {
  static constexpr std::size_t kBytes = 8;
  static void put(std::string& out, double v) { put_f64(out, v); }
  static double get(Cursor& c) { return c.f64(); }
};

template <>
struct Wire<FlowId> {
  static constexpr std::size_t kBytes = 4;
  static void put(std::string& out, FlowId id) { put_i32(out, id.value()); }
  static FlowId get(Cursor& c) { return FlowId{c.i32()}; }
};

template <>
struct Wire<VmFlow> {
  static constexpr std::size_t kBytes = 4 + 4 + 8 + 4;
  static void put(std::string& out, const VmFlow& f) {
    put_i32(out, f.src_host);
    put_i32(out, f.dst_host);
    put_f64(out, f.rate);
    put_i32(out, f.group);
  }
  static VmFlow get(Cursor& c) {
    VmFlow f;
    f.src_host = c.i32();
    f.dst_host = c.i32();
    f.rate = c.f64();
    f.group = c.i32();
    return f;
  }
};

/// [u32 count][count encoded elements].
template <typename T>
void put_vec(std::string& out, const std::vector<T>& v) {
  put_u32(out, checked_cast<std::uint32_t>(v.size(), "journal vector length"));
  for (const T& x : v) Wire<T>::put(out, x);
}

template <typename T>
std::vector<T> read_vec(Cursor& c) {
  std::vector<T> v(c.count(Wire<T>::kBytes));
  for (T& x : v) x = Wire<T>::get(c);
  return v;
}

/// Frames a payload: [u32 length][u32 crc32(payload)][payload].
void append_frame(std::string& out, const std::string& payload) {
  put_u32(out, checked_cast<std::uint32_t>(payload.size(),
                                           "journal frame length"));
  put_u32(out, crc32(payload));
  out.append(payload);
}

/// Reads the frame starting at `pos`; returns the [begin, end) payload
/// range and advances `pos` past the frame. Throws on truncation or CRC
/// mismatch, naming the offset.
std::pair<std::size_t, std::size_t> read_frame(const std::string& bytes,
                                               std::size_t& pos) {
  Cursor head(bytes, pos, bytes.size());
  const std::uint32_t len = head.u32();
  const std::uint32_t stored_crc = head.u32();
  const std::size_t begin = head.pos();
  PPDC_REQUIRE(len <= bytes.size() - begin,
               "journal frame at byte offset " + std::to_string(pos) +
                   " claims " + std::to_string(len) + " bytes but only " +
                   std::to_string(bytes.size() - begin) + " remain (torn "
                   "write)");
  const std::uint32_t actual_crc = crc32(bytes.data() + begin, len);
  PPDC_REQUIRE(actual_crc == stored_crc,
               "journal frame at byte offset " + std::to_string(pos) +
                   " fails its CRC32 (stored " + std::to_string(stored_crc) +
                   ", computed " + std::to_string(actual_crc) + ")");
  pos = begin + len;
  return {begin, begin + len};
}

/// Checks that `bytes` opens with `magic`, reads the header frame after it
/// and its leading version word, and returns a cursor over the rest of the
/// header payload; `pos` is left after the header frame. `kind` names the
/// format in errors. A bad header is never recoverable: without a trusted
/// header nothing else in the file can be believed.
Cursor read_header(const std::string& bytes, const char (&magic)[8],
                   std::uint32_t version, const std::string& kind,
                   const std::string& path, std::size_t& pos) {
  PPDC_REQUIRE(bytes.size() >= sizeof magic &&
                   std::memcmp(bytes.data(), magic, sizeof magic) == 0,
               "'" + path + "' is not a ppdc " + kind + " (bad magic)");
  pos = sizeof magic;
  const auto [begin, end] = read_frame(bytes, pos);
  Cursor c(bytes, begin, end);
  const std::uint32_t found = c.u32();
  PPDC_REQUIRE(found == version,
               kind + " '" + path + "' has version " + std::to_string(found) +
                   ", this build reads version " + std::to_string(version));
  return c;
}

std::string serialize_header(const ExperimentFingerprint& fp,
                             const JournalDims& dims) {
  std::string payload;
  put_u32(payload, kVersion);
  put_u64(payload, fp.topology);
  put_u64(payload, fp.workload);
  put_u64(payload, fp.fault_schedule);
  put_u64(payload, fp.policy_list);
  put_u64(payload, fp.sim_config);
  put_u32(payload, dims.trials);
  put_u32(payload, dims.policies);
  put_u32(payload, dims.hours);
  return payload;
}

std::string serialize_record(const JobRecord& rec) {
  std::string payload;
  put_u32(payload, rec.trial);
  put_u32(payload, rec.policy);
  put_u8(payload, static_cast<std::uint8_t>(rec.outcome));
  put_u32(payload, rec.attempts);
  put_str(payload, rec.policy_name);
  put_str(payload, rec.error);
  const bool has_stats = rec.outcome != JobOutcome::kFailed;
  put_u8(payload, has_stats ? 1 : 0);
  if (has_stats) {
    put_u32(payload, checked_cast<std::uint32_t>(rec.stats.hourly_cost.size(),
                                                 "journal hours"));
    for (const RunningStats& s : rec.stats.metrics) {
      put_running_stats(payload, s);
    }
    for (const RunningStats& s : rec.stats.hourly_cost) {
      put_running_stats(payload, s);
    }
    for (const RunningStats& s : rec.stats.hourly_moves) {
      put_running_stats(payload, s);
    }
  }
  return payload;
}

JobRecord parse_record(const std::string& bytes, std::size_t begin,
                       std::size_t end, const JournalDims& dims) {
  Cursor c(bytes, begin, end);
  JobRecord rec;
  rec.trial = c.u32();
  rec.policy = c.u32();
  const std::uint8_t outcome = c.u8();
  PPDC_REQUIRE(outcome <= static_cast<std::uint8_t>(JobOutcome::kFailed),
               "journal record at byte offset " + std::to_string(begin) +
                   " carries unknown outcome " + std::to_string(outcome));
  rec.outcome = static_cast<JobOutcome>(outcome);
  rec.attempts = c.u32();
  rec.policy_name = c.str();
  rec.error = c.str();
  const bool has_stats = c.u8() != 0;
  PPDC_REQUIRE(rec.trial < dims.trials && rec.policy < dims.policies,
               "journal record at byte offset " + std::to_string(begin) +
                   " addresses cell (" + std::to_string(rec.trial) + ", " +
                   std::to_string(rec.policy) + ") outside the " +
                   std::to_string(dims.trials) + "x" +
                   std::to_string(dims.policies) + " grid");
  if (has_stats) {
    // Both hourly series follow: bound the count by the frame before the
    // bundle is sized by it.
    const std::uint32_t hours = c.count(2 * kRunningStatsBytes);
    PPDC_REQUIRE(hours == dims.hours,
                 "journal record at byte offset " + std::to_string(begin) +
                     " carries " + std::to_string(hours) +
                     " hourly series entries for a " +
                     std::to_string(dims.hours) + "-hour horizon");
    rec.stats = StatsBundle(hours);
    for (RunningStats& s : rec.stats.metrics) s = c.running_stats();
    for (RunningStats& s : rec.stats.hourly_cost) s = c.running_stats();
    for (RunningStats& s : rec.stats.hourly_moves) s = c.running_stats();
  }
  PPDC_REQUIRE(c.exhausted(),
               "journal record at byte offset " + std::to_string(begin) +
                   " has trailing bytes");
  return rec;
}

// ---------------------------------------------------------------------------
// Durable file plumbing (POSIX): the journal at `path` is replaced via
// write-to-temp + fsync + rename, then the directory entry is fsynced, so
// the visible file is always a complete journal.
// ---------------------------------------------------------------------------

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw PpdcError(what + " '" + path + "': " + std::strerror(errno));
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                        O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best effort: FS may not support directory opens
  ::fsync(fd);
  ::close(fd);
}

void write_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("cannot open checkpoint temp file", tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_io("cannot write checkpoint temp file", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_io("cannot fsync checkpoint temp file", tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_io("cannot rename checkpoint temp file over", path);
  }
  fsync_parent_dir(path);
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PPDC_REQUIRE(in.good(), "cannot read checkpoint journal '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Fault-injection hook of the kill-resume gates: when the environment
/// variable `var` holds a positive integer N, the caller hard-exits (no
/// unwinding, no atexit — a SIGKILL stand-in) right after its N-th
/// durable write. 0 (disabled) otherwise.
int crash_after_from_env(const char* var) {
  const char* v = std::getenv(var);
  if (v == nullptr) return 0;
  // strtol instead of atoi so garbage ("", "abc", trailing junk) is
  // detectably rejected rather than silently parsed as 0-ish.
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') return 0;
  return n > 0 && n <= std::numeric_limits<int>::max()
             ? static_cast<int>(n)
             : 0;
}

// Knob groups shared by fingerprint_experiment and
// fingerprint_sharded_run, so each result-shaping knob is hashed in one
// place. The order of the calls in each caller is part of its fingerprint
// value.

/// The churn trace, the bounded-staleness re-solve schedule and the
/// quarantine SLA (which prices quarantined shard-epochs into total
/// cost). Shard threads and the epoch-journal knobs are excluded: they
/// only decide wall time and durability, never results.
void hash_churn_and_staleness(Hash64& h, const ShardedStreamingConfig& s) {
  h.i64(s.churn.arrivals_per_epoch);
  h.f64(s.churn.departure_prob);
  h.f64(s.churn.rerate_prob);
  h.f64(s.resolve_churn_fraction);
  h.i64(s.max_staleness);
  h.f64(s.quarantine_sla);
}

/// The diurnal model, the hour-0 candidate limit, whether a custom rate
/// schedule is set, and the downtime factor.
void hash_schedule_knobs(Hash64& h, const SimConfig& c) {
  h.i64(c.diurnal.hours_per_day).f64(c.diurnal.tau_min);
  h.i64(c.diurnal.coast_offset);
  h.i64(c.initial_placement.candidate_limit);
  // A journal of a scheduled run must not resume an unscheduled one (or
  // the reverse).
  h.b(static_cast<bool>(c.rate_schedule));
  h.f64(c.downtime_factor);
}

void hash_faults(Hash64& h, const FaultSchedule& faults) {
  h.u64(faults.size());
  for (const FaultEvent& e : faults) {
    h.i64(e.epoch.value()).u64(static_cast<std::uint64_t>(e.kind));
    h.i64(e.node).i64(e.u).i64(e.v);
  }
}

void hash_fault_handling(Hash64& h, const SimConfig& c) {
  h.f64(c.fault.mu).f64(c.fault.quarantine_penalty);
  h.i64(c.fault.placement.candidate_limit);
  h.b(c.fault.exhaustive_recovery);
  h.f64(c.fault.budget.wall_ms);
  h.b(c.ladder.enabled);
  h.f64(c.ladder.max_quarantined_fraction);
  h.i64(c.ladder.trip_truncations);
  h.i64(c.ladder.recovery_epochs);
  // Auditing changes no results, but a run that dies on an AuditError
  // must not silently resume as a non-audited run (and vice versa).
  h.b(c.audit.enabled);
}

}  // namespace

const char* to_string(JobOutcome outcome) noexcept {
  switch (outcome) {
    case JobOutcome::kOk:
      return "ok";
    case JobOutcome::kTruncated:
      return "truncated";
    case JobOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

std::vector<std::string> ExperimentFingerprint::diff(
    const ExperimentFingerprint& other) const {
  std::vector<std::string> out;
  if (topology != other.topology) out.emplace_back("topology");
  if (workload != other.workload) out.emplace_back("workload");
  if (fault_schedule != other.fault_schedule) {
    out.emplace_back("fault schedule");
  }
  if (policy_list != other.policy_list) out.emplace_back("policy list");
  if (sim_config != other.sim_config) out.emplace_back("sim config");
  return out;
}

ExperimentFingerprint fingerprint_experiment(
    const Topology& topo, const ExperimentConfig& config,
    const std::vector<const MigrationPolicy*>& policies) {
  ExperimentFingerprint fp;
  {
    // The serialized form captures nodes, labels, edges, weights and rack
    // structure — everything the simulation can observe of the fabric.
    std::ostringstream os;
    save_topology(os, topo);
    fp.topology = hash64(os.str());
  }
  {
    Hash64 h;
    h.u64(config.seed).i64(config.trials);
    const VmPlacementConfig& w = config.workload;
    h.i64(w.num_pairs).f64(w.intra_rack_fraction).b(w.spatial_coasts);
    h.f64(w.rack_zipf_s);
    const RateDistribution& r = w.rates;
    h.f64(r.light_fraction).f64(r.medium_fraction).f64(r.heavy_fraction);
    h.f64(r.light_lo).f64(r.light_hi).f64(r.medium_lo).f64(r.medium_hi);
    h.f64(r.heavy_lo).f64(r.heavy_hi);
    fp.workload = h.value();
  }
  {
    Hash64 h;
    hash_faults(h, config.sim.faults);
    fp.fault_schedule = h.value();
  }
  {
    Hash64 h;
    h.u64(policies.size());
    for (const MigrationPolicy* p : policies) h.str(p->name());
    fp.policy_list = h.value();
  }
  {
    Hash64 h;
    h.i64(config.sfc_length).i64(config.sim.hours);
    hash_schedule_knobs(h, config.sim);
    hash_fault_handling(h, config.sim);
    h.b(config.sharded.enabled);
    hash_churn_and_staleness(h, config.sharded);
    fp.sim_config = h.value();
  }
  return fp;
}

CheckpointJournal::CheckpointJournal(std::string path,
                                     const ExperimentFingerprint& fingerprint,
                                     const JournalDims& dims)
    : path_(std::move(path)),
      crash_after_(crash_after_from_env("PPDC_CHECKPOINT_CRASH_AFTER")) {
  PPDC_REQUIRE(!path_.empty(), "checkpoint journal path is empty");
  if (file_exists(path_)) {
    JournalContents contents = read_journal(path_);
    if (contents.fingerprint != fingerprint) {
      const std::vector<std::string> diverged =
          contents.fingerprint.diff(fingerprint);
      std::string what = "checkpoint journal '" + path_ +
                         "' was written by a different experiment — "
                         "diverged component";
      what += diverged.size() == 1 ? ": " : "s: ";
      for (std::size_t i = 0; i < diverged.size(); ++i) {
        if (i > 0) what += ", ";
        what += diverged[i];
      }
      what += " (delete the journal or rerun the original configuration)";
      throw CheckpointMismatchError(what);
    }
    PPDC_REQUIRE(contents.dims == dims,
                 "checkpoint journal '" + path_ +
                     "' header dimensions disagree with a matching "
                     "fingerprint (corrupt header?)");
    warning_ = contents.warning;
    resumed_ = std::move(contents.records);
    // Keep exactly the verified prefix: a dropped tail is rewritten by
    // the first append, and the rerun jobs re-journal their records.
    buffer_.assign(kMagic, sizeof kMagic);
    append_frame(buffer_, serialize_header(fingerprint, dims));
    for (const JobRecord& rec : resumed_) {
      append_frame(buffer_, serialize_record(rec));
    }
  } else {
    buffer_.assign(kMagic, sizeof kMagic);
    append_frame(buffer_, serialize_header(fingerprint, dims));
    write_atomic(path_, buffer_);
  }
}

void CheckpointJournal::append(const JobRecord& record) {
  const std::string payload = serialize_record(record);
  const std::lock_guard<std::mutex> lock(mu_);
  append_frame(buffer_, payload);
  write_atomic(path_, buffer_);
  ++appended_;
  if (crash_after_ > 0 && appended_ >= crash_after_) {
    // SIGKILL stand-in for the kill-resume gate: no unwinding, no
    // flushing beyond what is already durable.
    std::_Exit(37);
  }
}

JournalContents read_journal(const std::string& path) {
  PPDC_REQUIRE(file_exists(path),
               "checkpoint journal '" + path + "' does not exist");
  const std::string bytes = read_file(path);
  JournalContents out;
  std::size_t pos = 0;
  {
    Cursor c =
        read_header(bytes, kMagic, kVersion, "checkpoint journal", path, pos);
    out.fingerprint.topology = c.u64();
    out.fingerprint.workload = c.u64();
    out.fingerprint.fault_schedule = c.u64();
    out.fingerprint.policy_list = c.u64();
    out.fingerprint.sim_config = c.u64();
    out.dims.trials = c.u32();
    out.dims.policies = c.u32();
    out.dims.hours = c.u32();
    PPDC_REQUIRE(c.exhausted(),
                 "checkpoint journal '" + path + "' header has trailing bytes");
  }
  while (pos < bytes.size()) {
    const std::size_t frame_start = pos;
    try {
      const auto [begin, end] = read_frame(bytes, pos);
      JobRecord rec = parse_record(bytes, begin, end, out.dims);
      out.record_offsets.push_back(frame_start);
      out.records.push_back(std::move(rec));
    } catch (const PpdcError& e) {
      // A torn or corrupt record invalidates everything after it (frame
      // boundaries can no longer be trusted). Drop the tail: the affected
      // jobs rerun, which is always safe.
      out.tail_dropped = true;
      out.warning = "checkpoint journal '" + path + "': dropping " +
                    std::to_string(bytes.size() - frame_start) +
                    " byte(s) after record " +
                    std::to_string(out.records.size()) + " — " + e.what();
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Epoch-granular journal of one sharded run (DESIGN.md §15).
// ---------------------------------------------------------------------------

namespace {

constexpr char kEpochMagic[8] = {'P', 'P', 'D', 'C', 'E', 'J', 'L', '1'};
constexpr std::uint32_t kEpochVersion = 1;

void put_decision(std::string& out, const EpochDecision& d) {
  // moved_flows is deliberately not journaled: VM-relocating policies
  // need a single shard and run through run_simulation, which never
  // journals.
  PPDC_REQUIRE(d.moved_flows.empty(),
               "epoch journal cannot persist moved_flows (run VM-relocating "
               "policies without an epoch journal)");
  put_f64(out, d.comm_cost);
  put_f64(out, d.migration_cost);
  put_f64(out, d.migration_distance);
  put_i32(out, d.vnf_migrations);
  put_i32(out, d.vm_migrations);
  put_i32(out, d.truncated_solves);
  put_i32(out, d.switch_failures);
  put_i32(out, d.link_failures);
  put_i32(out, d.repairs);
  put_i32(out, d.recovery_migrations);
  put_f64(out, d.recovery_cost);
  put_i32(out, d.quarantined_flows);
  put_f64(out, d.quarantine_penalty);
  put_u8(out, d.service_down ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(d.rung));
  put_u8(out, d.policy_failed ? 1 : 0);
  put_i32(out, d.resolved_shards);
  put_i32(out, d.held_shards);
  put_i32(out, d.quarantined_shards);
  put_i32(out, d.shard_retries);
  put_f64(out, d.shard_penalty);
}

EpochDecision cursor_decision(Cursor& c) {
  EpochDecision d;
  d.comm_cost = c.f64();
  d.migration_cost = c.f64();
  d.migration_distance = c.f64();
  d.vnf_migrations = c.i32();
  d.vm_migrations = c.i32();
  d.truncated_solves = c.i32();
  d.switch_failures = c.i32();
  d.link_failures = c.i32();
  d.repairs = c.i32();
  d.recovery_migrations = c.i32();
  d.recovery_cost = c.f64();
  d.quarantined_flows = c.i32();
  d.quarantine_penalty = c.f64();
  d.service_down = c.u8() != 0;
  const std::uint8_t rung = c.u8();
  PPDC_REQUIRE(rung <= static_cast<std::uint8_t>(DegradationRung::kFrozen),
               "epoch journal decision carries unknown rung " +
                   std::to_string(rung));
  d.rung = static_cast<DegradationRung>(rung);
  d.policy_failed = c.u8() != 0;
  d.resolved_shards = c.i32();
  d.held_shards = c.i32();
  d.quarantined_shards = c.i32();
  d.shard_retries = c.i32();
  d.shard_penalty = c.f64();
  return d;
}

void put_group_snapshot(std::string& out, const CostModel::GroupSnapshot& g) {
  put_i32(out, g.num_groups);
  put_vec(out, g.base_rates);
  put_vec(out, g.groups);
  put_vec(out, g.group_rows);
  put_vec(out, g.row_groups);
  put_vec(out, g.group_ingress);
  put_vec(out, g.group_egress);
  put_vec(out, g.last_scales);
  put_vec(out, g.snap_src);
  put_vec(out, g.snap_dst);
}

CostModel::GroupSnapshot cursor_group_snapshot(Cursor& c) {
  CostModel::GroupSnapshot g;
  g.num_groups = c.i32();
  g.base_rates = read_vec<double>(c);
  g.groups = read_vec<std::int32_t>(c);
  g.group_rows = read_vec<std::int32_t>(c);
  g.row_groups = read_vec<std::int32_t>(c);
  g.group_ingress = read_vec<double>(c);
  g.group_egress = read_vec<double>(c);
  g.last_scales = read_vec<double>(c);
  g.snap_src = read_vec<std::int32_t>(c);
  g.snap_dst = read_vec<std::int32_t>(c);
  return g;
}

void put_shard_state(std::string& out, const ShardResumeState& s) {
  put_vec(out, s.shard.flows);
  put_vec(out, s.shard.base_rates);
  put_vec(out, s.shard.groups);
  put_vec(out, s.shard.global_ids);
  put_vec(out, s.shard.free_locals);
  put_i32(out, s.shard.live);
  put_group_snapshot(out, s.shard.model);
  put_vec(out, s.loop.placement);
  put_f64(out, s.loop.last_comm);
  put_i32(out, s.loop.staleness);
  put_i32(out, s.loop.churned);
  put_u8(out, s.loop.resync_pending ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(s.loop.rung));
  put_i32(out, s.loop.clean_streak);
  put_i32(out, s.loop.fail_streak);
}

ShardResumeState cursor_shard_state(Cursor& c) {
  ShardResumeState s;
  s.shard.flows = read_vec<VmFlow>(c);
  s.shard.base_rates = read_vec<double>(c);
  s.shard.groups = read_vec<std::int32_t>(c);
  s.shard.global_ids = read_vec<FlowId>(c);
  s.shard.free_locals = read_vec<FlowId>(c);
  s.shard.live = c.i32();
  s.shard.model = cursor_group_snapshot(c);
  s.loop.placement = read_vec<std::int32_t>(c);
  s.loop.last_comm = c.f64();
  s.loop.staleness = c.i32();
  s.loop.churned = c.i32();
  s.loop.resync_pending = c.u8() != 0;
  const std::uint8_t rung = c.u8();
  PPDC_REQUIRE(rung <= static_cast<std::uint8_t>(DegradationRung::kFrozen),
               "epoch journal shard state carries unknown rung " +
                   std::to_string(rung));
  s.loop.rung = static_cast<DegradationRung>(rung);
  s.loop.clean_streak = c.i32();
  s.loop.fail_streak = c.i32();
  return s;
}

std::string serialize_workload_snapshot(
    const StreamingWorkload::Snapshot& snap) {
  std::string out;
  put_vec(out, snap.flows);
  put_vec(out, snap.free_slots);
  put_i32(out, snap.next_index);
  for (const std::uint64_t s : snap.rng) put_u64(out, s);
  return out;
}

StreamingWorkload::Snapshot cursor_workload_snapshot(Cursor& c) {
  StreamingWorkload::Snapshot snap;
  snap.flows = read_vec<VmFlow>(c);
  snap.free_slots = read_vec<FlowId>(c);
  snap.next_index = c.i32();
  for (std::uint64_t& s : snap.rng) s = c.u64();
  return snap;
}

std::atomic<int> g_epoch_journal_writes{0};

}  // namespace

std::uint64_t fingerprint_sharded_run(
    const StreamingWorkload::Snapshot& entry_state, const SimConfig& config,
    const ShardedStreamingConfig& sharded, int n, int num_shards,
    const std::string& policy_name) {
  Hash64 h;
  // The entry-state snapshot pins the exact initial draw; the churn knobs
  // pin how it evolves (the snapshot alone cannot — two configs share an
  // epoch-0 state but diverge from epoch 1).
  h.u64(hash64(serialize_workload_snapshot(entry_state)));
  hash_churn_and_staleness(h, sharded);
  h.str(policy_name);
  h.i64(n).i64(num_shards).i64(config.hours);
  hash_schedule_knobs(h, config);
  hash_faults(h, config.faults);
  hash_fault_handling(h, config);
  return h.value();
}

void write_epoch_journal(const std::string& path,
                         const EpochJournalState& state) {
  PPDC_REQUIRE(!path.empty(), "epoch journal path is empty");
  std::string bytes(kEpochMagic, sizeof kEpochMagic);
  {
    std::string header;
    put_u32(header, kEpochVersion);
    put_u64(header, state.fingerprint);
    put_u32(header, state.hours);
    put_u32(header, checked_cast<std::uint32_t>(state.epochs.size(),
                                                "epoch journal epochs"));
    put_u32(header, checked_cast<std::uint32_t>(state.shards.size(),
                                                "epoch journal shards"));
    put_vec(header, state.merged_initial);
    append_frame(bytes, header);
  }
  for (const EpochRecord& rec : state.epochs) {
    std::string payload;
    put_decision(payload, rec.decision);
    put_u32(payload, rec.ladder_steps);
    append_frame(bytes, payload);
  }
  {
    std::string payload;
    for (const ShardResumeState& s : state.shards) {
      put_shard_state(payload, s);
    }
    payload += serialize_workload_snapshot(state.workload);
    append_frame(bytes, payload);
  }
  write_atomic(path, bytes);
  static const int crash_after =
      crash_after_from_env("PPDC_EPOCH_CRASH_AFTER");
  const int writes =
      g_epoch_journal_writes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (crash_after > 0 && writes >= crash_after) {
    // SIGKILL stand-in for the sharded kill-resume gate: no unwinding, no
    // flushing beyond what is already durable.
    std::_Exit(37);
  }
}

bool read_epoch_journal(const std::string& path, EpochJournalState& out) {
  if (!file_exists(path)) return false;
  const std::string bytes = read_file(path);
  std::size_t pos = 0;
  std::uint32_t num_epochs = 0;
  std::uint32_t num_shards = 0;
  {
    Cursor c = read_header(bytes, kEpochMagic, kEpochVersion, "epoch journal",
                           path, pos);
    out.fingerprint = c.u64();
    out.hours = c.u32();
    num_epochs = c.u32();
    num_shards = c.u32();
    out.merged_initial = read_vec<std::int32_t>(c);
    PPDC_REQUIRE(c.exhausted(),
                 "epoch journal '" + path + "' header has trailing bytes");
    PPDC_REQUIRE(num_epochs >= 1 && num_epochs <= out.hours,
                 "epoch journal '" + path + "' claims " +
                     std::to_string(num_epochs) + " epochs for a " +
                     std::to_string(out.hours) + "-hour horizon");
  }
  // The epoch and shard counts are not reserved up front: every element
  // must come out of a CRC-checked frame, so a hostile count runs out of
  // bytes instead of memory.
  out.epochs.clear();
  for (std::uint32_t e = 0; e < num_epochs; ++e) {
    const auto [begin, end] = read_frame(bytes, pos);
    Cursor c(bytes, begin, end);
    EpochRecord rec;
    rec.decision = cursor_decision(c);
    rec.ladder_steps = c.u32();
    PPDC_REQUIRE(c.exhausted(),
                 "epoch journal '" + path + "' epoch frame has trailing "
                 "bytes");
    out.epochs.push_back(std::move(rec));
  }
  {
    const auto [begin, end] = read_frame(bytes, pos);
    Cursor c(bytes, begin, end);
    out.shards.clear();
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      out.shards.push_back(cursor_shard_state(c));
    }
    out.workload = cursor_workload_snapshot(c);
    PPDC_REQUIRE(c.exhausted(),
                 "epoch journal '" + path + "' state frame has trailing "
                 "bytes");
  }
  PPDC_REQUIRE(pos == bytes.size(),
               "epoch journal '" + path + "' has " +
                   std::to_string(bytes.size() - pos) +
                   " trailing byte(s) after the state frame");
  return true;
}

void remove_epoch_journal(const std::string& path) {
  if (path.empty()) return;
  ::unlink(path.c_str());
}

}  // namespace ppdc
