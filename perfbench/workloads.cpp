#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <fstream>

#include "causal/causal.hpp"
#include "integrity/integrity.hpp"
#include "io/volume.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "pipeline/threaded_pipeline.hpp"

namespace perfbench {

using namespace msc;

const Workload* findWorkload(const std::string& name) {
  // Sizes are chosen so one job takes about 0.5-0.8 s on a 4-core
  // host: a run of a few tens of seconds then holds two jobs of every
  // input, a steady median and a tail with ten jobs beyond it. The
  // layer shares of each job are close to those of the larger grids
  // the workloads stand for (perfbench/README.md).
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> v;
    {
      Workload w{"jet_compute", Driver::kThreaded, FieldKind::kJet, Domain{{57, 57, 37}},
                 32, 4, {4, 8}};
      w.inputs = 32;
      v.push_back(w);
    }
    {
      Workload w{"noise_merge", Driver::kThreaded, FieldKind::kNoise, Domain{{37, 37, 23}},
                 32, 4, {4, 8}};
      w.premerge = true;
      w.sharded_final = true;
      v.push_back(w);
    }
    {
      Workload w{"volume_guarded", Driver::kThreaded, FieldKind::kNoise,
                 Domain{{37, 37, 23}}, 32, 4, {4, 8}};
      w.from_volume = true;
      w.integrity = true;
      w.guarded = true;
      v.push_back(w);
    }
    {
      Workload w{"sim_ladder_1024", Driver::kSim, FieldKind::kJet, Domain{{41, 41, 25}},
                 1024, 1024, {2, 8, 8, 8}};
      w.premerge = true;
      w.sharded_final = true;
      w.integrity = true;
      w.inputs = 32;
      v.push_back(w);
    }
    return v;
  }();
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

Inputs makeInputs(const Workload& w, std::uint64_t seed, int index,
                  const std::filesystem::path& dir, bool with_digest) {
  Inputs in;
  // Every field seed derives from the workload seed, the workload's
  // name and the input's index, so no two inputs share a field.
  std::uint64_t h = integrity::mix64(seed);
  for (const char* p = w.name; *p; ++p) h = integrity::mix64(h ^ static_cast<unsigned char>(*p));
  h = integrity::mix64(h ^ static_cast<std::uint64_t>(index));
  in.field_seed = static_cast<unsigned>(h & 0x7fffffffu);
  in.field = w.field == FieldKind::kJet ? synth::jetLike(w.domain, in.field_seed)
                                        : synth::noise(in.field_seed);
  if (w.from_volume) {
    const std::vector<float> samples = synth::sampleAll(w.domain, in.field);
    in.digest = integrity::checksum64(samples.data(), samples.size() * sizeof(float));
    in.volume_path = (dir / ("volume-" + std::to_string(index) + ".f32")).string();
    io::writeVolume(in.volume_path, w.domain, samples, io::SampleType::kFloat32);
  } else if (with_digest) {
    // Every 4th vertex along each axis: enough to tell two fields
    // apart at 1/64 of the cost of sampling all of them.
    std::vector<float> samples;
    const Vec3i& d = w.domain.vdims;
    for (std::int64_t z = 0; z < d.z; z += 4)
      for (std::int64_t y = 0; y < d.y; y += 4)
        for (std::int64_t x = 0; x < d.x; x += 4) samples.push_back(in.field(Vec3i{x, y, z}));
    in.digest = integrity::checksum64(samples.data(), samples.size() * sizeof(float));
  }
  return in;
}

ScratchDir::ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

Instruments::Instruments() = default;
Instruments::~Instruments() = default;
Instruments::Instruments(Instruments&&) noexcept = default;
Instruments& Instruments::operator=(Instruments&&) noexcept = default;

pipeline::PipelineConfig makeConfig(const Workload& w, const Inputs& in,
                                    const std::filesystem::path& job_dir,
                                    Instruments& inst, bool traced, int nranks) {
  pipeline::PipelineConfig cfg;
  cfg.domain = w.domain;
  cfg.source.field = in.field;
  if (w.from_volume) cfg.source.volume_path = in.volume_path;
  cfg.nblocks = w.nblocks;
  cfg.nranks = nranks > 0 ? nranks : w.nranks;
  cfg.persistence_threshold = 0.03f;
  cfg.plan = MergePlan::partial(w.plan);
  cfg.algorithm = pipeline::GradientAlgorithm::kLowerStar;
  cfg.output_path = (job_dir / "out.msc").string();
  cfg.premerge = w.premerge;
  cfg.sharded_final = w.sharded_final;
  cfg.integrity = w.integrity;
  inst = Instruments();
  if (w.guarded) {
    cfg.fault.recovery = fault::RecoveryMode::kRespawn;
    const std::filesystem::path spill = job_dir / "checkpoints";
    std::filesystem::create_directories(spill);
    cfg.fault.checkpoint_dir = spill.string();
    // No audit::Auditor: attached to this driver it intermittently
    // reports a deadlock in a fault-free run (see perfbench/README.md), and a
    // benchmark job must not fail for a reason outside its own output.
    inst.causal = std::make_unique<causal::Recorder>(cfg.nranks);
    inst.metrics = std::make_unique<metrics::Registry>(cfg.nranks);
    cfg.causal = inst.causal.get();
  }
  if (traced) {
    if (!inst.metrics) inst.metrics = std::make_unique<metrics::Registry>(cfg.nranks);
    inst.tracer = std::make_unique<obs::Tracer>(cfg.nranks);
    cfg.tracer = inst.tracer.get();
  }
  cfg.metrics = inst.metrics.get();
  return cfg;
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {

/// Reset the process's peak-RSS mark (VmHWM) to its current RSS, so
/// the next reading covers one job. Where /proc/self/clear_refs is not
/// writable the reading stays the peak since the process started.
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// VmHWM of /proc/self/status in 10^6 bytes, or getrusage's peak.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024 / 1e6;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024 / 1e6;  // ru_maxrss is KiB
}

}  // namespace

JobResult runJob(Driver driver, const pipeline::PipelineConfig& cfg) {
  JobResult r;
  resetPeakRss();
  const double c0 = processCpuSeconds();
  const double t0 = now();
  if (driver == Driver::kSim) {
    pipeline::SimResult s = pipeline::runSimPipeline(cfg);
    r.seconds = now() - t0;
    r.cpu_seconds = processCpuSeconds() - c0;
    r.times = std::move(s.times);
    r.outputs = std::move(s.outputs);
  } else {
    pipeline::ThreadedResult t = pipeline::runThreadedPipeline(cfg);
    r.seconds = now() - t0;
    r.cpu_seconds = processCpuSeconds() - c0;
    r.times = std::move(t.times);
    r.outputs = std::move(t.outputs);
    r.respawns = t.recovery.respawns;
    r.frames_dropped = t.integrity.frames_dropped;
    r.frames_verified = t.integrity.frames_verified;
  }
  r.peak_rss_mb = peakRssMb();
  r.file_bytes = static_cast<std::int64_t>(std::filesystem::file_size(cfg.output_path));
  return r;
}

std::uint64_t outputDigest(const std::vector<io::Bytes>& parts) {
  std::uint64_t h = integrity::mix64(parts.size());
  for (const io::Bytes& p : parts)
    h = integrity::mix64(h ^ integrity::checksum64(p.data(), p.size()));
  return h;
}

}  // namespace perfbench
