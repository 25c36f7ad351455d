/// msc_perfbench: end-to-end benchmark of the threaded and simulated
/// pipeline drivers, with a per-layer ledger in traced runs.
///
///   msc_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 --work-dir DIR [--corrupt-job K]
///
/// Untraced runs (--trace 0) time whole jobs and print the end-to-end
/// metrics; traced runs (--trace 1) print the per-layer metrics. Every
/// job's output is checked. The last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}; the exit code is 0
/// only when every job passed. perfbench/run.py builds and drives it.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/canonical.hpp"
#include "check/check.hpp"
#include "integrity/integrity.hpp"
#include "io/complex_file.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "hostspeed.hpp"
#include "replay.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace msc;
namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units here are the ones BENCHMARK.json lists;
// perfbench/run.py refuses a run whose printed names differ.
constexpr MetricDef kEndToEnd[] = {
    {"job_s_p50", "s"},       {"job_s_tail", "s"},   {"mvox_per_s", "Mvox/s"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"}, {"output_mb", "MB"},
    {"ok_frac", "frac"},      {"modeled_total_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"pipeline.read_s", "s"},
    {"pipeline.compute_s", "s"},
    {"pipeline.merge_prep_s", "s"},
    {"pipeline.merge_final_round_s", "s"},
    {"pipeline.write_s", "s"},
    {"core.gradient.self_s", "s"},
    {"core.gradient.mcells_per_s", "Mcells/s"},
    {"core.gradient.cells", "count"},
    {"core.gradient.criticals", "count"},
    {"core.trace.self_s", "s"},
    {"core.trace.steps", "count"},
    {"core.simplify.self_s", "s"},
    {"core.simplify.cancelled", "count"},
    {"core.simplify.yield", "frac"},
    {"core.glue.self_s", "s"},
    {"core.glue.dedup_frac", "frac"},
    {"core.finish_merge.self_s", "s"},
    {"merge.shard.replay_s", "s"},
    {"merge.shard.exchange_bytes", "bytes_computed"},
    {"merge.reduce.self_s", "s"},
    {"merge.reduce.shrink_frac", "frac"},
    {"synth.sample.self_s", "s"},
    {"io.read.self_s", "s"},
    {"io.read.mb_per_s", "MB/s"},
    {"io.pack.self_s", "s"},
    {"io.pack.mb_per_s", "MB/s"},
    {"io.unpack.self_s", "s"},
    {"io.write.self_s", "s"},
    {"io.write.mb_per_s", "MB/s"},
    {"par.messages", "count"},
    {"par.bytes", "bytes"},
    {"par.mailbox_wait_s", "s"},
    {"par.barrier_wait_s", "s"},
    {"fault.checkpoint.puts", "count"},
    {"fault.checkpoint.bytes", "bytes"},
    {"fault.checkpoint.put_s", "s"},
    {"integrity.frames_verified", "count"},
    {"integrity.checksum_mb_per_s", "MB/s"},
    {"wire.trailer_bytes", "bytes_computed"},
    {"mem.peak_live_mb", "MB"},
    {"simnet.compute_s", "s"},
    {"simnet.merge_s", "s"},
    {"simnet.final_round_s", "s"},
    {"simnet.final_round_compute_share", "frac"},
    {"simnet.compute_imbalance", "ratio"},
    {"simnet.serial_s", "s"},
    {"pipeline.speedup_vs_1rank", "ratio"},
    {"bench.trace_overhead_frac", "frac"},
};

constexpr int kSetupRepeats = 5;
constexpr int kReplayRepeats = 3;
constexpr int kTailBeyond = 10;  // jobs the tail percentile leaves beyond it

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Pins the calling thread to the k-th CPU it may run on, and restores
/// the full set when it goes out of scope. A single-threaded job stays
/// on whichever CPU the scheduler gave it, and on a shared host one CPU
/// ran up to 30% slower than another for tens of seconds; rotating the
/// sim driver's jobs over every CPU makes a run sample all of them, as
/// the rank threads of a threaded job do.
class PinToCpu {
 public:
  explicit PinToCpu(int k) {
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    const int n = CPU_COUNT(&all_);
    if (n < 2) return;
    int target = k % n;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &all_) || target-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  ~PinToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof all_, &all_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t all_{};
  bool pinned_ = false;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir;
  int corrupt_job = -1;  ///< self-test: flip one output byte of the K-th timed job
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "msc_perfbench: %s\nusage: msc_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--corrupt-job K]\n",
               msg);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
        have[0] = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have[1] = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have[2] = true;
      } else if (key == "--trace") {
        a.trace = std::stoi(val);
        have[3] = true;
      } else if (key == "--work-dir") {
        a.work_dir = val;
      } else if (key == "--corrupt-job") {
        a.corrupt_job = std::stoi(val);
      } else {
        usage(("unknown argument " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have[0] || !have[1] || !have[2] || !have[3] || a.work_dir.empty())
    usage("--workload, --seed, --seconds, --trace and --work-dir are required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0) || a.seconds > 600) usage("--seconds must be in (0, 600]");
  return a;
}

/// withEnvOverrides() rewrites the configuration from MSC_* variables;
/// a measurement taken under one would not be the configuration this
/// benchmark names, so any MSC_* variable stops the run.
void refuseEnvOverrides() {
  std::vector<std::string> found;
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "MSC_", 4) == 0) found.emplace_back(*e);
  if (found.empty()) return;
  std::fprintf(stderr,
               "msc_perfbench: refusing to measure: the pipeline reads these MSC_* "
               "environment variables as configuration overrides:\n");
  for (const std::string& f : found) std::fprintf(stderr, "  %s\n", f.c_str());
  std::exit(3);
}

/// Output checks shared by every job of a run.
class Checker {
 public:
  /// Count one attempted job on input `input`; false (and a failure)
  /// when it does not match the run's first job on that input.
  bool check(int input, const std::vector<io::Bytes>& outputs, std::int64_t file_bytes,
             const char* what) {
    ++attempted_;
    const Ref got{outputDigest(outputs), file_bytes};
    const Ref& ref = refs_.emplace(input, got).first->second;
    if (outputs.empty() || got.digest != ref.digest || got.file_bytes != ref.file_bytes) {
      fail(std::string(what) + " on input " + std::to_string(input) +
           ": output digest or container size differs from the first job");
      return false;
    }
    return true;
  }
  void threw(const char* what, const std::exception& e) {
    ++attempted_;
    fail(std::string(what) + " threw: " + e.what());
  }
  void fail(const std::string& why) {
    ++failed_;
    if (failed_ <= 5) std::printf("check: FAILED %s\n", why.c_str());
  }
  /// A problem with the benchmark itself rather than with one job.
  void invalid(const std::string& why) {
    correct_ = false;
    std::printf("check: INVALID %s\n", why.c_str());
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }
  /// Digest over every input's reference output digest.
  std::uint64_t reference() const {
    std::uint64_t h = 0;
    for (const auto& [input, ref] : refs_) h = integrity::mix64(h ^ ref.digest);
    return h;
  }
  /// Mean container size over the inputs seen so far.
  double meanFileBytes() const {
    double sum = 0;
    for (const auto& [input, ref] : refs_) sum += static_cast<double>(ref.file_bytes);
    return refs_.empty() ? 0 : sum / static_cast<double>(refs_.size());
  }

 private:
  struct Ref {
    std::uint64_t digest;
    std::int64_t file_bytes;
  };
  std::map<int, Ref> refs_;
  int attempted_ = 0;
  int failed_ = 0;
  bool correct_ = true;
};

/// The full check on one job's outputs: canonical union census with
/// Euler characteristic 1, every part structurally valid, a single
/// part also Euler-valid on its own, and the written container
/// reading back as the outputs.
std::string deepCheck(const Workload& w, const std::vector<io::Bytes>& parts,
                      const std::vector<io::Bytes>& file_parts) {
  if (file_parts != parts) return "written container does not read back as the outputs";
  const check::CanonicalComplex canon = check::canonicalize(w.domain, parts);
  if (canon.chi() != 1) return "canonical union has chi " + std::to_string(canon.chi());
  for (const io::Bytes& p : parts) {
    const MsComplex c = io::unpack(p);
    const check::CheckReport rep = check::checkComplex(c);
    if (!rep.ok()) return "checkComplex: " + rep.summary();
    if (parts.size() == 1) {
      const check::CheckReport eu = check::checkEuler(c, 1);
      if (!eu.ok()) return "checkEuler: " + eu.summary();
    }
  }
  return "";
}

/// How to run one job.
struct JobOpts {
  bool traced = false;  ///< attach the program's tracer and registry
  bool timed = false;   ///< one of the timed jobs (the self-test may corrupt it)
  Instruments* keep = nullptr;  ///< receives the job's instruments
  int nranks = 0;       ///< > 0 overrides the workload's rank count
  bool sim = false;     ///< run through the sim driver whatever the workload's
};

struct Run {
  Run(const Workload& workload, Args a, fs::path d)
      : w(workload), args(std::move(a)), dir(std::move(d)) {}

  const Workload& w;
  Args args;
  fs::path dir;
  std::vector<Inputs> inputs;
  Checker checker;
  int next_job = 0;
  int timed_jobs = 0;
  std::optional<std::vector<io::Bytes>> deep_parts;  ///< one job's outputs, for deepCheck
  std::vector<io::Bytes> deep_file;
  bool deep_checked = false;

  /// One job with fresh instruments, output path and spill directory,
  /// all removed before returning, and the heap trimmed afterwards so
  /// the next job starts as a fresh process would. Null when the job
  /// failed.
  std::optional<JobResult> job(int input, const JobOpts& o) {
    const int id = next_job++;
    const int timed_index = o.timed ? timed_jobs++ : -1;
    struct Trim {
      ~Trim() { malloc_trim(0); }
    } trim_after;  // declared first, so it runs after every other cleanup
    const ScratchDir jd(dir / ("job-" + std::to_string(id)));
    Instruments inst;
    try {
      const pipeline::PipelineConfig cfg = makeConfig(
          w, inputs[static_cast<std::size_t>(input)], jd.path(), inst, o.traced, o.nranks);
      const Driver driver = o.sim ? Driver::kSim : w.driver;
      std::optional<PinToCpu> pin;
      if (driver == Driver::kSim) pin.emplace(id);
      double speed_scale = 1;
      if (o.timed)
        speed_scale = kRefCalibrationCpu / calibrate(driver == Driver::kSim ? 1 : cfg.nranks);
      JobResult r = runJob(driver, cfg);
      r.speed_scale = speed_scale;
      pin.reset();
      if (timed_index >= 0 && timed_index == args.corrupt_job && !r.outputs.empty() &&
          !r.outputs[0].empty()) {
        r.outputs[0][r.outputs[0].size() / 2] ^= std::byte{0x01};
        std::printf("self-test: flipped one output byte of timed job %d\n", timed_index);
      }
      bool ok = checker.check(input, r.outputs, r.file_bytes, o.timed ? "timed job" : "job");
      if (ok && (r.respawns != 0 || r.frames_dropped != 0)) {
        checker.fail("fault-free job respawned a rank or dropped a frame");
        ok = false;
      }
      if (ok && !deep_parts) {
        deep_parts = r.outputs;
        deep_file = io::readComplexFile(cfg.output_path);
      }
      if (o.keep) *o.keep = std::move(inst);
      if (!ok) return std::nullopt;
      return r;
    } catch (const std::exception& e) {
      checker.threw("job", e);
      return std::nullopt;
    }
  }

  void runDeepCheck() {
    if (!deep_parts) return;
    const std::string why = deepCheck(w, *deep_parts, deep_file);
    deep_checked = why.empty();
    if (!why.empty()) checker.fail("deep check: " + why);
    deep_parts.reset();
    deep_file.clear();
  }
};

std::string planString(const std::vector<int>& plan) {
  std::string s = "[";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(plan[i]);
  }
  return s + "]";
}

void printHost() {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("host: nproc=%u l2_per_core_kib=%ld l3_kib=%ld compiler=\"%s\" build_type=%s\n",
              std::thread::hardware_concurrency(), l2 / 1024, l3 / 1024,
              MSC_PERFBENCH_COMPILER, MSC_PERFBENCH_BUILD_TYPE);
}

void printWorkload(const Workload& w, const std::vector<Inputs>& inputs, std::uint64_t seed) {
  std::uint64_t digest = 0;
  for (const Inputs& in : inputs) digest = integrity::mix64(digest ^ in.digest);
  const Vec3i& d = w.domain.vdims;
  // Working set per rank: its blocks' f32 samples plus one byte of
  // gradient state per cell (8 cells per vertex), computed.
  const double verts = static_cast<double>(w.domain.vdims.volume());
  const double per_rank_kib = verts / w.nranks * (4 + 8) / 1024;
  std::printf(
      "workload: %s driver=%s grid=%lldx%lldx%lld blocks=%d ranks=%d plan=%s premerge=%d "
      "sharded_final=%d integrity=%d guarded=%d volume=%d seed=%llu inputs=%zu "
      "input_digest=%016llx working_set_per_rank_kib=%.0f (computed)\n",
      w.name, w.driver == Driver::kSim ? "sim" : "threaded", static_cast<long long>(d.x),
      static_cast<long long>(d.y), static_cast<long long>(d.z), w.nblocks,
      w.nranks, planString(w.plan).c_str(), w.premerge, w.sharded_final, w.integrity,
      w.guarded, w.from_volume, static_cast<unsigned long long>(seed), inputs.size(),
      static_cast<unsigned long long>(digest), per_rank_kib);
}

/// Untraced run: timed jobs, cycling over the run's inputs, until
/// --seconds have passed and every input has run. A job's time is its
/// process CPU seconds: the reference host's hypervisor steals CPU
/// time, which moves a 4-thread job's wall time by up to 2x from
/// minute to minute. Job times and stage totals are scaled to the
/// reference host speed by the calibration taken before each job
/// (hostspeed.hpp); the unscaled figures are printed alongside.
std::map<std::string, double> measureEndToEnd(Run& run, const std::vector<double>& setup) {
  std::vector<double> secs, walls, rss, totals, raw_secs, raw_totals, scales;
  const double t0 = now();
  const double cap = 2 * run.args.seconds + 10;
  // Every input at least once; the set-up's warm-up jobs and the
  // inputs that come round again within --seconds are compared.
  const int min_jobs = std::max(kTailBeyond + 1, run.w.inputs);
  for (int k = 0;; ++k) {
    const double elapsed = now() - t0;
    if ((k >= min_jobs && elapsed >= run.args.seconds) || elapsed >= cap) break;
    if (const auto r = run.job(k % run.w.inputs, {.timed = true})) {
      secs.push_back(r->cpu_seconds * r->speed_scale);
      totals.push_back(r->times.total() * r->speed_scale);
      raw_secs.push_back(r->cpu_seconds);
      raw_totals.push_back(r->times.total());
      walls.push_back(r->seconds);
      scales.push_back(r->speed_scale);
      rss.push_back(r->peak_rss_mb);
    }
  }
  // The two drivers produce byte-identical outputs: a threaded
  // workload's input 0 through the sim driver must match its reference.
  if (run.w.driver == Driver::kThreaded) run.job(0, {.sim = true});
  double cpu_total = 0;
  for (const double s : secs) cpu_total += s;
  std::vector<double> sorted = secs;
  std::sort(sorted.begin(), sorted.end());
  const int n = static_cast<int>(sorted.size());
  double tail = sorted.empty() ? 0 : sorted.back();
  if (n > kTailBeyond) {
    const int idx = n - 1 - kTailBeyond;
    tail = sorted[static_cast<std::size_t>(idx)];
    std::printf("tail: job_s_tail is p%.1f of %d timed jobs (%d beyond it)\n",
                100.0 * (idx + 1) / n, n, kTailBeyond);
  } else {
    std::printf("tail: only %d timed jobs; job_s_tail is their maximum\n", n);
  }
  std::printf(
      "unscaled: job CPU p50 %.4f s, wall p50 %.4f s, stage total p50 %.4f s over %d timed "
      "jobs; host speed %.3f of the reference\n",
      median(raw_secs), median(walls), median(raw_totals), n, ratio(1, median(scales)));
  const double verts = static_cast<double>(run.w.domain.vdims.volume());
  std::map<std::string, double> m;
  m["job_s_p50"] = median(secs);
  m["job_s_tail"] = tail;
  m["mvox_per_s"] = ratio(verts * static_cast<double>(n) / 1e6, cpu_total);
  m["setup_s"] = median(setup);
  m["peak_rss_mb"] = median(rss);
  m["output_mb"] = run.checker.meanFileBytes() / 1e6;
  m["modeled_total_s"] = median(totals);
  return m;
}

/// Traced run: part (b) threaded/sim jobs with the program's tracer
/// and registry attached, alternating with untraced jobs; then part
/// (a) replays under benchmark-side spans.
std::map<std::string, double> measurePerLayer(Run& run) {
  const Workload& w = run.w;
  std::map<std::string, double> m;
  std::vector<double> plain_s, plain_cpu, plain_total, traced_cpu;
  std::map<std::string, std::vector<double>> stage;
  std::vector<double> mailbox, barrier;
  std::int64_t messages = 0;
  double bytes = 0;
  std::int64_t frames_verified = 0;
  std::array<std::int64_t, metrics::kNumCounters> counters{};
  double peak_live_mb = 0;

  const double t0 = now();
  const double budget = 0.5 * run.args.seconds;
  while ((now() - t0 < budget || traced_cpu.size() < 3) && now() - t0 < 2 * budget + 30) {
    if (const auto r = run.job(0, {})) {
      plain_s.push_back(r->seconds);
      plain_cpu.push_back(r->cpu_seconds);
      plain_total.push_back(r->times.total());
      stage["pipeline.read_s"].push_back(r->times.read);
      stage["pipeline.compute_s"].push_back(r->times.compute);
      stage["pipeline.merge_prep_s"].push_back(r->times.merge_prep);
      stage["pipeline.merge_final_round_s"].push_back(
          r->times.merge_rounds.empty() ? 0 : r->times.merge_rounds.back());
      stage["pipeline.write_s"].push_back(r->times.write);
    }
    Instruments inst;
    if (const auto r = run.job(0, {.traced = true, .keep = &inst})) {
      traced_cpu.push_back(r->cpu_seconds);
      const obs::CounterSet tot = inst.tracer->totals();
      messages = static_cast<std::int64_t>(tot[obs::Counter::kMessagesSent]);
      bytes = tot[obs::Counter::kBytesSent];
      mailbox.push_back(tot[obs::Counter::kMailboxWaitSeconds]);
      barrier.push_back(tot[obs::Counter::kBarrierWaitSeconds]);
      for (int c = 0; c < metrics::kNumCounters; ++c)
        counters[static_cast<std::size_t>(c)] =
            inst.metrics->counterTotal(static_cast<metrics::Counter>(c));
      peak_live_mb = static_cast<double>(
                         inst.metrics->gaugeMax(metrics::Gauge::kMemPeakLiveBytes)) / 1e6;
      frames_verified = r->frames_verified;
    }
  }
  for (const auto& [name, v] : stage) m[name] = median(v);
  const auto counter = [&](metrics::Counter c) {
    return static_cast<double>(counters[static_cast<std::size_t>(c)]);
  };
  m["core.gradient.cells"] = counter(metrics::Counter::kGradCells);
  m["core.gradient.criticals"] = counter(metrics::Counter::kGradCriticals);
  m["core.trace.steps"] = counter(metrics::Counter::kTraceSteps);
  m["core.simplify.cancelled"] = counter(metrics::Counter::kSimplifyCancelled);
  m["fault.checkpoint.puts"] = counter(metrics::Counter::kCheckpointPuts);
  m["fault.checkpoint.bytes"] = counter(metrics::Counter::kCheckpointBytes);
  m["par.messages"] = static_cast<double>(messages);
  m["par.bytes"] = bytes;
  m["par.mailbox_wait_s"] = median(mailbox);
  m["par.barrier_wait_s"] = median(barrier);
  m["integrity.frames_verified"] = static_cast<double>(frames_verified);
  m["mem.peak_live_mb"] = peak_live_mb;
  // Computed: every data frame of the threaded runtime carries the
  // trailers of the instruments attached to it (causal vector clock +
  // footer, integrity checksum trailer).
  double trailer = 0;
  if (w.driver == Driver::kThreaded) {
    if (w.guarded) trailer += 8.0 * w.nranks + 16;  // causal recorder
    if (w.integrity) trailer += integrity::kWireTrailerBytes;
  }
  m["wire.trailer_bytes"] = trailer * static_cast<double>(messages);
  m["bench.trace_overhead_frac"] = ratio(median(traced_cpu), median(plain_cpu)) - 1;
  std::printf("traced: %zu untraced and %zu traced jobs, median CPU %.4f s and %.4f s\n",
              plain_cpu.size(), traced_cpu.size(), median(plain_cpu), median(traced_cpu));

  // Single-rank baseline of the same input. For the sim driver the
  // modeled parallel totals are compared (its wall time is serial at
  // any rank count).
  if (const auto one = run.job(0, {.nranks = 1})) {
    if (w.driver == Driver::kSim) {
      m["pipeline.speedup_vs_1rank"] = ratio(one->times.total(), median(plain_total));
    } else {
      m["pipeline.speedup_vs_1rank"] = ratio(one->seconds, median(plain_s));
    }
  }

  // Part (a): replays under benchmark-side spans.
  std::map<std::string, std::vector<double>> layer;
  for (int i = 0; i < kReplayRepeats; ++i) {
    const int id = run.next_job++;
    const ScratchDir jd(run.dir / ("replay-" + std::to_string(id)));
    Instruments inst;
    const pipeline::PipelineConfig cfg = makeConfig(w, run.inputs[0], jd.path(), inst, false);
    SpanLog log(static_cast<std::uint64_t>(id));
    ReplayResult rr;
    try {
      rr = replayJob(cfg, w.driver == Driver::kThreaded, log);
    } catch (const std::exception& e) {
      run.checker.threw("replay", e);
      continue;
    }
    run.checker.check(0, rr.outputs, static_cast<std::int64_t>(fs::file_size(cfg.output_path)),
                      "replay");
    const std::map<std::string, double> self = log.selfSeconds();
    double sum = 0;
    for (const auto& [name, s] : self) sum += s;
    const double root = log.rootSeconds();
    if (std::fabs(sum - root) > 1e-9 * std::max(1.0, root) + 1e-12)
      run.checker.invalid("replay span self times do not add up to the root span");
    if (i == 0) {
      std::printf("replay: %zu spans, root %.4f s, self-time sum %.4f s; self by layer:",
                  log.spans().size(), root, sum);
      for (const auto& [name, s] : self) std::printf(" %s=%.4f", name.c_str(), s);
      std::printf("\n");
    }
    const auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const ReplayCounts& k = rr.counts;
    const auto put = [&](const char* name, double v) { layer[name].push_back(v); };
    put("core.gradient.self_s", self_of("core.gradient"));
    put("core.gradient.mcells_per_s",
        ratio(static_cast<double>(k.grad_cells) / 1e6, self_of("core.gradient")));
    put("core.trace.self_s", self_of("core.trace"));
    put("core.simplify.self_s", self_of("core.simplify"));
    put("core.simplify.yield",
        ratio(static_cast<double>(k.simplify_cancelled),
              static_cast<double>(k.simplify_cancelled + k.simplify_skipped)));
    put("core.glue.self_s", self_of("core.glue"));
    put("core.glue.dedup_frac", ratio(static_cast<double>(k.glue_arcs_deduped),
                                      static_cast<double>(k.glue_arcs_shipped)));
    put("core.finish_merge.self_s", self_of("core.finish_merge"));
    put("merge.shard.replay_s", self_of("merge.shard.replay"));
    put("merge.shard.exchange_bytes", static_cast<double>(k.shard_exchange_bytes));
    put("merge.reduce.self_s", self_of("merge.reduce"));
    put("merge.reduce.shrink_frac",
        k.reduce_bytes_before > 0 ? 1 - static_cast<double>(k.reduce_bytes_after) /
                                            static_cast<double>(k.reduce_bytes_before)
                                  : 0);
    put("synth.sample.self_s", self_of("synth.sample"));
    put("io.read.self_s", self_of("io.read"));
    put("io.read.mb_per_s", ratio(static_cast<double>(k.read_bytes) / 1e6, self_of("io.read")));
    put("io.pack.self_s", self_of("io.pack"));
    put("io.pack.mb_per_s", ratio(static_cast<double>(k.pack_bytes) / 1e6, self_of("io.pack")));
    put("io.unpack.self_s", self_of("io.unpack"));
    put("io.write.self_s", self_of("io.write"));
    put("io.write.mb_per_s",
        ratio(static_cast<double>(k.write_bytes) / 1e6, self_of("io.write")));
    put("fault.checkpoint.put_s", self_of("fault.checkpoint"));
    put("integrity.checksum_mb_per_s", ratio(static_cast<double>(k.checksum_bytes) / 1e6,
                                             self_of("integrity.checksum")));
    const simnet::StageTimes& st = rr.modeled;
    const double final_round = st.merge_rounds.empty() ? 0 : st.merge_rounds.back();
    // The final round's slowest group, in modeled compute seconds.
    const double cpu_scale = pipeline::SimModels{}.scale.cpu_scale;
    double final_compute = 0;
    if (!rr.timeline.rounds.empty())
      for (const simnet::GroupRecord& g : rr.timeline.rounds.back())
        final_compute = std::max(final_compute, g.merge_seconds * cpu_scale);
    put("simnet.compute_s", st.compute);
    put("simnet.merge_s", st.mergeTotal());
    put("simnet.final_round_s", final_round);
    put("simnet.final_round_compute_share", ratio(final_compute, final_round));
    put("simnet.compute_imbalance", simnet::imbalance(rr.timeline.compute_per_rank));
    put("simnet.serial_s", root);
  }
  for (const auto& [name, v] : layer) m[name] = median(v);
  return m;
}

void printResult(const Checker& chk, const std::map<std::string, double>& values,
                 const MetricDef* defs, std::size_t ndefs) {
  std::string out = "{\"correct\": ";
  out += chk.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(chk.attempted());
  out += ", \"failed\": " + std::to_string(chk.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ndefs; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += std::string(i ? ", " : "") + "\"" + defs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  const Workload* w = findWorkload(args.workload);
  if (!w) usage(("unknown workload " + args.workload).c_str());
  const ScratchDir dir(args.work_dir);
  Run r(*w, args, dir.path());
  printHost();

  // Set-up, repeated: generation of every input (and its volume file)
  // plus one warm-up job, whose output is its input's reference. Its
  // CPU seconds are scaled like a timed job's.
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double speed_scale =
        kRefCalibrationCpu / calibrate(w->driver == Driver::kSim ? 1 : w->nranks);
    const double c0 = processCpuSeconds();
    r.inputs.clear();
    for (int k = 0; k < w->inputs; ++k)
      r.inputs.push_back(makeInputs(*w, args.seed, k, dir.path(), false));
    r.job(i % w->inputs, {});
    setup.push_back((processCpuSeconds() - c0) * speed_scale);
  }
  for (int k = 0; k < w->inputs; ++k) {
    Inputs& in = r.inputs[static_cast<std::size_t>(k)];
    if (in.digest == 0) in.digest = makeInputs(*w, args.seed, k, dir.path(), true).digest;
  }
  printWorkload(*w, r.inputs, args.seed);

  std::map<std::string, double> values;
  if (args.trace == 0) {
    values = measureEndToEnd(r, setup);
  } else {
    values = measurePerLayer(r);
  }
  r.runDeepCheck();
  if (!r.deep_checked) r.checker.invalid("no job passed the deep output check");
  std::printf("check: %d jobs, %d failed, reference digest %016llx, deep check %s\n",
              r.checker.attempted(), r.checker.failed(),
              static_cast<unsigned long long>(r.checker.reference()),
              r.deep_checked ? "passed" : "FAILED");
  if (args.trace == 0) {
    values["ok_frac"] = 1.0 - ratio(r.checker.failed(), r.checker.attempted());
    printResult(r.checker, values, kEndToEnd, std::size(kEndToEnd));
  } else {
    printResult(r.checker, values, kPerLayer, std::size(kPerLayer));
  }
  return r.checker.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  perfbench::refuseEnvOverrides();
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msc_perfbench: %s\n", e.what());
    return 1;
  }
}
