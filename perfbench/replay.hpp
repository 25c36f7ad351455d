/// \file replay.hpp
/// Part (a) of the traced run: one job of a workload replayed in the
/// benchmark's own code, calling each layer's public function in turn
/// under a benchmark-side span. The program itself is not
/// instrumented; the spans sit around the calls into it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pipeline/sim_pipeline.hpp"
#include "simnet/timeline.hpp"

namespace perfbench {

/// In-memory span log of one replayed job. Spans nest strictly (the
/// replay is sequential), all carry the job's id, and stay in memory
/// until the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 for the root
    std::uint64_t job = 0;
    double start = 0;
    double end = 0;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  explicit SpanLog(std::uint64_t job) : job_(job) {}
  const std::vector<Span>& spans() const { return spans_; }
  /// Span duration minus the time its children cover, summed by name.
  std::map<std::string, double> selfSeconds() const;
  /// Duration of the first root span.
  double rootSeconds() const;

 private:
  std::uint64_t job_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Work the replay counted, next to its spans.
struct ReplayCounts {
  std::int64_t grad_cells = 0;
  std::int64_t simplify_cancelled = 0;
  std::int64_t simplify_skipped = 0;  ///< multi-arc + boundary + degree
  std::int64_t glue_arcs_shipped = 0;
  std::int64_t glue_arcs_deduped = 0;
  std::int64_t reduce_bytes_before = 0;
  std::int64_t reduce_bytes_after = 0;
  std::int64_t shard_exchange_bytes = 0;  ///< computed: blobs x receivers + bundles
  std::int64_t read_bytes = 0;
  std::int64_t pack_bytes = 0;
  std::int64_t write_bytes = 0;
  std::int64_t checksum_bytes = 0;
};

struct ReplayResult {
  ReplayCounts counts;
  std::vector<msc::io::Bytes> outputs;  ///< the replay's final parts
  msc::simnet::TimelineInputs timeline;
  msc::simnet::StageTimes modeled;      ///< simnet::reconstruct of the replay
};

/// Replay one job of `cfg` (instrument pointers are ignored). The
/// threaded driver's ship path (pack, checksum when integrity is on,
/// unpack, glue) is replayed when `ship` is set; otherwise members are
/// glued in place as the sim driver does.
ReplayResult replayJob(const msc::pipeline::PipelineConfig& cfg, bool ship,
                       SpanLog& log);

}  // namespace perfbench
