/// \file workloads.hpp
/// The benchmark's four workloads, the inputs a seed derives for them,
/// and one job: a call into pipeline::runThreadedPipeline or
/// pipeline::runSimPipeline with fresh instruments, a fresh output
/// path and a fresh checkpoint spill directory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/config.hpp"
#include "pipeline/sim_pipeline.hpp"

namespace msc::causal {
class Recorder;
}
namespace msc::metrics {
class Registry;
}
namespace msc::obs {
class Tracer;
}

namespace perfbench {

enum class Driver { kThreaded, kSim };
enum class FieldKind { kJet, kNoise };

struct Workload {
  const char* name;
  Driver driver;
  FieldKind field;
  msc::Domain domain;
  int nblocks;
  int nranks;
  std::vector<int> plan;     ///< merge radices (full merge to one root)
  bool from_volume = false;  ///< read blocks from a raw f32 volume file
  bool premerge = false;
  bool sharded_final = false;
  bool integrity = false;
  /// kRespawn recovery with a checkpoint spill directory, plus a
  /// causal recorder and a metrics registry on every job.
  bool guarded = false;
  /// Inputs per run. synth::jetLike fields differ more from seed to
  /// seed than synth::noise fields, so jet workloads average over more.
  int inputs = 16;
};

/// Look a workload up by name; null when there is none.
const Workload* findWorkload(const std::string& name);

/// One input of a run. A run uses Workload::inputs of them, all
/// derived from the workload seed, so its medians average over several
/// fields of the workload's family instead of resting on one.
struct Inputs {
  unsigned field_seed = 0;
  msc::synth::Field field;
  std::string volume_path;     ///< set for from_volume workloads
  std::uint64_t digest = 0;    ///< checksum of the sampled field (0 = not taken)
};

/// Generate input `index` of the run seeded `seed` (and write its
/// volume file under `dir`). A volume input is fingerprinted from its
/// samples; `with_digest` fingerprints any other input from a coarse
/// lattice of its field.
Inputs makeInputs(const Workload& w, std::uint64_t seed, int index,
                  const std::filesystem::path& dir, bool with_digest);

/// A directory created on construction and removed with its contents
/// on destruction, so no job's files outlive it.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Instruments attached to one job. Every job gets fresh ones.
struct Instruments {
  std::unique_ptr<msc::causal::Recorder> causal;
  std::unique_ptr<msc::metrics::Registry> metrics;
  std::unique_ptr<msc::obs::Tracer> tracer;
  Instruments();
  ~Instruments();
  Instruments(Instruments&&) noexcept;
  Instruments& operator=(Instruments&&) noexcept;
};

/// The pipeline configuration of one job of `w`. `traced` attaches a
/// fresh obs::Tracer and metrics::Registry (the program's own
/// instruments); `nranks` overrides the workload's rank count when > 0.
msc::pipeline::PipelineConfig makeConfig(const Workload& w, const Inputs& in,
                                         const std::filesystem::path& job_dir,
                                         Instruments& inst, bool traced, int nranks = 0);

/// Seconds on the steady clock.
double now();

/// CPU seconds the process has used so far, all threads, user + system.
double processCpuSeconds();

/// What one job returned.
struct JobResult {
  double seconds = 0;           ///< wall: driver call to return, write included
  double cpu_seconds = 0;       ///< process CPU time over the same interval
  msc::simnet::StageTimes times;
  std::vector<msc::io::Bytes> outputs;
  std::int64_t file_bytes = 0;  ///< size of the written container
  double peak_rss_mb = 0;       ///< process peak RSS during the job, 10^6 bytes
  std::int64_t respawns = 0;
  std::int64_t frames_dropped = 0;
  std::int64_t frames_verified = 0;
  /// Reference-speed factor of a timed job: kRefCalibrationCpu over
  /// the calibration taken just before it (hostspeed.hpp); 1 otherwise.
  double speed_scale = 1;
};

/// Run one job through `driver`; throws whatever the driver throws.
JobResult runJob(Driver driver, const msc::pipeline::PipelineConfig& cfg);

/// Digest of a job's packed outputs (part count and every byte).
std::uint64_t outputDigest(const std::vector<msc::io::Bytes>& parts);

}  // namespace perfbench
