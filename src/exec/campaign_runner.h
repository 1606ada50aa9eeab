// Deterministic campaign execution (DESIGN.md §9).
//
// A LocalCloud round is embarrassingly parallel — each zone's gather is
// an independent NanoCloud simulation — so the runner is the one place a
// regional round is driven, with or without a worker pool.  Results are
// independent of how (and whether) zones are fanned out, by three rules:
//
//   1. Seeding: per-zone Rng streams are forked from the campaign Rng
//      sequentially, in zone order, BEFORE fan-out.  Zone z's stream is
//      a pure function of (campaign rng state, z) — never of scheduling.
//   2. Isolation: each zone task binds a private MetricsRegistry shard
//      (obs::ScopedMetricShard), so no floating-point accumulator is
//      shared across concurrently running zones.  The fault injector's
//      streams are already keyed per zone / per node (fault.h).
//   3. Reduction: after ALL tasks complete, shards are merged into the
//      process registry and results are folded into the RegionalResult
//      in ascending zone order — the same floating-point addition order
//      every time.
//
// Headline invariant (enforced by tests/test_exec.cpp): a campaign run
// with no pool, with 1 worker and with N workers from the same seed
// produces byte-identical deterministic RunReports
// (RunReport::from_registry(reg, name, /*include_wall_clock=*/false)).
#pragma once

#include <cstddef>
#include <vector>

#include "exec/thread_pool.h"
#include "hierarchy/localcloud.h"

namespace sensedroid::exec {

/// Drives one LocalCloud's rounds, one task per zone.  With a pool the
/// tasks fan out across its workers; without one they run inline on the
/// calling thread through the same fork, shard and merge code.
/// Non-owning: the cloud and pool must outlive the runner.  The runner
/// is the only writer to the cloud while a round is in flight — zones
/// never touch each other's NanoCloud state, which is what makes the
/// per-zone fan-out sound.
class ParallelCampaignRunner {
 public:
  ParallelCampaignRunner(hierarchy::LocalCloud& cloud, ThreadPool& pool)
      : cloud_(&cloud), pool_(&pool) {}
  /// `pool == nullptr` runs every zone task inline on the caller.
  explicit ParallelCampaignRunner(hierarchy::LocalCloud& cloud,
                                  ThreadPool* pool = nullptr)
      : cloud_(&cloud), pool_(pool) {}

  /// One regional round: advances the fault round, plans admissions,
  /// forks per-zone Rng streams in zone order, gathers every admitted
  /// zone, and reduces in zone order — stitching the region and
  /// accounting the NC broker -> head uplink (32 B header + 16 B per
  /// support coefficient).  `decisions` must cover zone ids 0..Z-1
  /// exactly (throws std::invalid_argument).  A zone task that throws is
  /// rethrown here after every other zone of the round has finished
  /// (first zone in index order wins).
  hierarchy::RegionalResult run_round(
      const std::vector<hierarchy::ZoneDecision>& decisions,
      linalg::Rng& rng);

  /// Uniform budget per zone (the Luo-style non-adaptive configuration
  /// at equal total cost).
  hierarchy::RegionalResult run_round_uniform(
      std::size_t measurements_per_zone, linalg::Rng& rng);

  std::size_t zone_count() const noexcept { return cloud_->zone_count(); }
  /// Pool workers; 1 (the calling thread) without a pool.
  std::size_t worker_count() const noexcept {
    return pool_ != nullptr ? pool_->worker_count() : 1;
  }

 private:
  hierarchy::LocalCloud* cloud_;
  ThreadPool* pool_;
};

}  // namespace sensedroid::exec
