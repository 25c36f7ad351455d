#include "replay.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "core/boundary.hpp"
#include "core/lower_star.hpp"
#include "core/merge.hpp"
#include "decomp/decompose.hpp"
#include "fault/checkpoint.hpp"
#include "integrity/integrity.hpp"
#include "io/complex_file.hpp"
#include "merge/reduce.hpp"
#include "merge/shard.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace msc;

namespace {

/// One surviving complex during the merge rounds.
struct Active {
  int root_block;
  int owner_rank;
  MsComplex complex;
  std::int64_t packed_bytes;
};

void addSimplify(ReplayCounts& k, const SimplifyStats& s) {
  k.simplify_cancelled += s.cancellations;
  k.simplify_skipped += s.skipped_multi_arc + s.skipped_boundary + s.skipped_degree;
}

/// The distributed final round, as the sim driver executes it: every
/// survivor's complex is replaced by the part it owns.
std::vector<simnet::GroupRecord> shardedRound(const pipeline::PipelineConfig& cfg,
                                              std::vector<Active>& active, SpanLog& log,
                                              ReplayCounts& k) {
  const std::size_t S = active.size();
  std::vector<double> work(S, 0.0);
  if (cfg.premerge) {
    // Position 0 never ships in the single-root schedule: not reduced.
    for (std::size_t i = 1; i < S; ++i) {
      const SpanLog::Scope sp(log, "merge.reduce");
      const double t0 = now();
      const merge::ReduceStats rs =
          merge::reduceForShip(active[i].complex, cfg.persistence_threshold);
      work[i] += now() - t0;
      k.reduce_bytes_before += rs.bytes_before;
      k.reduce_bytes_after += rs.bytes_after;
    }
  }
  std::vector<io::Bytes> blobs(S);
  for (std::size_t i = 0; i < S; ++i) {
    const SpanLog::Scope sp(log, "merge.shard.blob");
    const double t0 = now();
    blobs[i] = merge::makeShardBlob(
        active[i].complex, static_cast<int>(i),
        merge::priorCoveredRegion(cfg.domain, cfg.nblocks, active[i].root_block));
    work[i] += now() - t0;
    k.shard_exchange_bytes += static_cast<std::int64_t>(blobs[i].size() * (S - 1));
  }
  double t_replica = 0;
  std::optional<MsComplex> merged;
  std::optional<merge::ShardPlanView> plan;
  {
    const SpanLog::Scope sp(log, "merge.shard.replay");
    const double t0 = now();
    std::vector<merge::ShardSkeleton> parts;
    parts.reserve(S);
    for (const io::Bytes& b : blobs) parts.push_back(merge::parseShardBlob(b));
    merged.emplace(merge::mergeShardSkeletons(std::move(parts), cfg.persistence_threshold));
    plan.emplace(merge::buildShardPlan(*merged));
    t_replica = now() - t0;
  }
  std::vector<MsComplex> outputs(S);
  {
    const SpanLog::Scope sp(log, "merge.shard.materialize");
    for (std::size_t d = 0; d < S; ++d) {
      merge::ShardPathServer server;
      server.addLocal(static_cast<int>(d), &active[d].complex);
      for (std::size_t src = 0; src < S; ++src) {
        if (src == d) continue;
        const double t0 = now();
        const io::Bytes bundle = merge::packPathBundle(
            active[src].complex,
            merge::shardNeededPaths(*plan, static_cast<int>(S), static_cast<int>(d),
                                    static_cast<int>(src)));
        k.shard_exchange_bytes += static_cast<std::int64_t>(bundle.size());
        work[src] += now() - t0;
        const double t1 = now();
        server.addRemote(static_cast<int>(src), merge::unpackPathBundle(bundle));
        work[d] += now() - t1;
      }
      const double t2 = now();
      outputs[d] = merge::materializeShardPart(*merged, *plan, static_cast<int>(S),
                                               static_cast<int>(d), server);
      work[d] += now() - t2;
    }
  }
  // Timeline records as the sim driver keeps them: rank-wide costs
  // (the foreign skeletons, the replicated merge) on each rank's first
  // group.
  std::map<int, std::size_t> first_of_rank;
  for (std::size_t i = 0; i < S; ++i) first_of_rank.emplace(active[i].owner_rank, i);
  std::vector<simnet::GroupRecord> recs;
  for (std::size_t i = 0; i < S; ++i) {
    simnet::GroupRecord rec;
    rec.root_rank = active[i].owner_rank;
    const bool first = first_of_rank.at(active[i].owner_rank) == i;
    for (std::size_t j = 0; j < S; ++j) {
      if (j == i || active[j].owner_rank == active[i].owner_rank) continue;
      if (first)
        rec.sends.emplace_back(active[j].owner_rank,
                               static_cast<std::int64_t>(blobs[j].size()));
    }
    rec.merge_seconds = work[i] + (first ? t_replica : 0.0);
    recs.push_back(std::move(rec));
  }
  for (std::size_t i = 0; i < S; ++i) {
    active[i].complex = std::move(outputs[i]);
    active[i].packed_bytes = static_cast<std::int64_t>(io::packedSize(active[i].complex));
  }
  return recs;
}

}  // namespace

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(log) {
  index_ = static_cast<int>(log_.spans_.size());
  Span s;
  s.name = name;
  s.parent = log_.open_.empty() ? -1 : log_.open_.back();
  s.job = log_.job_;
  s.start = now();
  log_.spans_.push_back(std::move(s));
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  log_.spans_[static_cast<std::size_t>(index_)].end = now();
  log_.open_.pop_back();
}

std::map<std::string, double> SpanLog::selfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

double SpanLog::rootSeconds() const {
  for (const Span& s : spans_)
    if (s.parent < 0) return s.end - s.start;
  return 0;
}

ReplayResult replayJob(const pipeline::PipelineConfig& cfg, bool ship, SpanLog& log) {
  ReplayResult res;
  ReplayCounts& k = res.counts;
  simnet::TimelineInputs& in = res.timeline;
  const std::size_t nranks = static_cast<std::size_t>(cfg.nranks);
  in.nranks = cfg.nranks;
  in.input_bytes = cfg.domain.vdims.volume() * static_cast<std::int64_t>(sizeof(float));
  in.compute_per_rank.assign(nranks, 0.0);
  in.merge_prep_per_rank.assign(nranks, 0.0);

  std::optional<fault::CheckpointStore> store;
  if (cfg.fault.recovery != fault::RecoveryMode::kOff) {
    store.emplace(cfg.fault.checkpoint_dir);
    if (cfg.integrity) {
      fault::CheckpointStore::IntegritySetup is;
      is.checksums = true;
      store->configureIntegrity(is);
    }
  }
  const auto checkpoint = [&](int round, const std::vector<Active>& active) {
    if (!store) return;
    const SpanLog::Scope sp(log, "fault.checkpoint");
    for (const Active& a : active) {
      io::Bytes bytes;
      {
        const SpanLog::Scope pk(log, "io.pack");
        bytes = io::pack(a.complex);
      }
      k.pack_bytes += static_cast<std::int64_t>(bytes.size());
      store->put(round, a.root_block, bytes, a.owner_rank);
    }
  };

  std::vector<Active> active;
  {
    const SpanLog::Scope root(log, "job");
    std::vector<Block> blocks;
    {
      const SpanLog::Scope sp(log, "decomp.decompose");
      blocks = decompose(cfg.domain, cfg.nblocks);
    }
    active.reserve(blocks.size());
    for (const Block& blk : blocks) {
      const int owner = blk.id % cfg.nranks;
      BlockField bf;
      if (cfg.source.volume_path) {
        const SpanLog::Scope sp(log, "io.read");
        bf = io::readBlock(*cfg.source.volume_path, blk, cfg.source.sample_type);
        k.read_bytes += blk.vdims.volume() *
                        static_cast<std::int64_t>(io::sampleSize(cfg.source.sample_type));
      } else {
        const SpanLog::Scope sp(log, "synth.sample");
        bf = synth::sample(blk, cfg.source.field);
      }
      double t0 = now();
      GradientField grad;
      {
        const SpanLog::Scope sp(log, "core.gradient");
        GradientOptions gopts;
        gopts.restrict_boundary = cfg.nblocks > 1;
        BoundarySignatures sigs;
        if (cfg.nblocks > 1) {
          sigs = BoundarySignatures(blocks, blk);
          gopts.signatures = &sigs;
        }
        grad = computeGradientLowerStar(bf, gopts);
      }
      k.grad_cells += static_cast<std::int64_t>(grad.state().size());
      MsComplex c;
      {
        const SpanLog::Scope sp(log, "core.trace");
        c = traceComplex(grad, bf, cfg.trace);
      }
      in.compute_per_rank[static_cast<std::size_t>(owner)] += now() - t0;
      t0 = now();
      {
        const SpanLog::Scope sp(log, "core.simplify");
        SimplifyOptions sopts;
        sopts.persistence_threshold = cfg.persistence_threshold;
        SimplifyStats ss;
        simplify(c, sopts, &ss);
        c.compact();
        addSimplify(k, ss);
      }
      const std::int64_t bytes = static_cast<std::int64_t>(io::packedSize(c));
      in.merge_prep_per_rank[static_cast<std::size_t>(owner)] += now() - t0;
      active.push_back({blk.id, owner, std::move(c), bytes});
    }
    checkpoint(0, active);

    for (int r = 0; r < cfg.plan.rounds(); ++r) {
      const auto groups = cfg.plan.round(r, static_cast<int>(active.size()));
      if (cfg.sharded_final && r == cfg.plan.rounds() - 1 && groups.size() == 1 &&
          active.size() > 1) {
        in.rounds.push_back(shardedRound(cfg, active, log, k));
        continue;
      }
      std::vector<Active> next;
      std::vector<simnet::GroupRecord> recs;
      for (const MergeGroup& g : groups) {
        Active& root = active[static_cast<std::size_t>(g.root)];
        simnet::GroupRecord rec;
        rec.root_rank = root.owner_rank;
        const double t0 = now();
        for (std::size_t m = 1; m < g.members.size(); ++m) {
          Active& member = active[static_cast<std::size_t>(g.members[m])];
          if (cfg.premerge) {
            const SpanLog::Scope sp(log, "merge.reduce");
            const double p0 = now();
            const merge::ReduceStats rs =
                merge::reduceForShip(member.complex, cfg.persistence_threshold);
            member.packed_bytes = static_cast<std::int64_t>(io::packedSize(member.complex));
            in.merge_prep_per_rank[static_cast<std::size_t>(member.owner_rank)] +=
                now() - p0;
            k.reduce_bytes_before += rs.bytes_before;
            k.reduce_bytes_after += rs.bytes_after;
          }
          rec.sends.emplace_back(member.owner_rank, member.packed_bytes);
          MsComplex shipped;
          if (ship) {
            io::Bytes frame;
            {
              const SpanLog::Scope sp(log, "io.pack");
              frame = io::pack(member.complex);
            }
            k.pack_bytes += static_cast<std::int64_t>(frame.size());
            if (cfg.integrity) {
              const SpanLog::Scope sp(log, "integrity.checksum");
              k.checksum_bytes += 2 * static_cast<std::int64_t>(frame.size());
              integrity::appendTrailer(frame);
              if (!integrity::verifyAndStripTrailer(frame))
                throw std::runtime_error("replay: frame checksum mismatch");
            }
            const SpanLog::Scope sp(log, "io.unpack");
            shipped = io::unpack(frame);
          } else {
            shipped = std::move(member.complex);
          }
          GlueStats gs;
          {
            const SpanLog::Scope sp(log, "core.glue");
            glue(root.complex, std::move(shipped), &gs);
          }
          k.glue_arcs_shipped += gs.arcs_added + gs.arcs_deduped;
          k.glue_arcs_deduped += gs.arcs_deduped;
          member.complex = MsComplex();
        }
        {
          const SpanLog::Scope sp(log, "core.finish_merge");
          SimplifyStats ss;
          finishMerge(root.complex, cfg.persistence_threshold, &ss);
          root.complex.compact();
          addSimplify(k, ss);
        }
        root.packed_bytes = static_cast<std::int64_t>(io::packedSize(root.complex));
        rec.merge_seconds = now() - t0;
        recs.push_back(std::move(rec));
        next.push_back(std::move(root));
      }
      in.rounds.push_back(std::move(recs));
      active = std::move(next);
      checkpoint(r + 1, active);
    }

    for (const Active& a : active) {
      const SpanLog::Scope sp(log, "io.pack");
      res.outputs.push_back(io::pack(a.complex));
      k.pack_bytes += static_cast<std::int64_t>(res.outputs.back().size());
    }
    for (const io::Bytes& b : res.outputs) in.output_bytes += static_cast<std::int64_t>(b.size());
    if (!cfg.output_path.empty()) {
      const SpanLog::Scope sp(log, "io.write");
      io::writeComplexFile(cfg.output_path, res.outputs);
      k.write_bytes = in.output_bytes;
    }
    {
      const SpanLog::Scope sp(log, "simnet.reconstruct");
      const pipeline::SimModels models;  // runSimPipeline's defaults
      const simnet::TorusModel net(simnet::Torus::fit(cfg.nranks), models.net);
      const simnet::IoModel iom(models.io);
      res.modeled = simnet::reconstruct(in, net, iom, models.scale);
    }
  }

  // Outside the root span: the last round's checkpoints must read back
  // as the bytes that were put.
  if (store) {
    const int last = cfg.plan.rounds();
    for (const Active& a : active) {
      const std::optional<io::Bytes> got = store->get(last, a.root_block, a.owner_rank);
      if (!got || *got != io::pack(a.complex))
        throw std::runtime_error("replay: checkpoint of block " +
                                 std::to_string(a.root_block) + " did not read back");
    }
  }
  return res;
}

}  // namespace perfbench
