// Crash-safe campaign driver (DESIGN.md §13): a LocalCloud campaign
// that checkpoints itself every N rounds and can be killed and resumed
// from the latest snapshot with a byte-identical continuation.
//
// Rounds run through ParallelCampaignRunner — inline on the calling
// thread when constructed without a pool, fanned out when given one —
// so the kill-and-resume invariant composes with the worker-count
// invariant: resume at any worker count (or none) reproduces the
// uninterrupted run's deterministic RunReport byte for byte.
//
// It also owns the degradation ladder: a fault::ZoneGuard (circuit
// breakers + budget shedding) is attached to the cloud for the
// campaign's lifetime.  With default (disabled) GuardOptions the guard
// plans nothing and the campaign is bit-identical to an unguarded one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "exec/campaign_runner.h"
#include "exec/thread_pool.h"
#include "fault/breaker.h"
#include "fault/checkpoint.h"
#include "hierarchy/localcloud.h"

namespace sensedroid::exec {

/// One campaign round's headline numbers, kept (and checkpointed) by the
/// driver so a resumed campaign returns the full history.
struct CampaignRoundRow {
  std::uint64_t round = 0;         ///< 0-based round index
  double nrmse = 0.0;              ///< regional reconstruction error
  std::size_t measurements = 0;    ///< readings that arrived
  std::size_t shed_zones = 0;      ///< zones refused by admission control
  double virtual_s = 0.0;          ///< campaign virtual clock after round
};

/// Drives a fixed-round LocalCloud campaign with periodic atomic
/// checkpoints and optional degradation guard.  Non-owning of cloud and
/// pool; owns the guard it attaches (and detaches on destruction).
class ResumableCampaign {
 public:
  struct Config {
    std::size_t rounds = 10;           ///< total campaign rounds
    std::size_t budget_per_zone = 32;  ///< uniform per-zone budget
    double period_s = 60.0;            ///< virtual seconds between rounds
    fault::CheckpointOptions checkpoint{};  ///< periodic snapshot knobs
    fault::GuardOptions guard{};            ///< breaker/shed knobs
  };

  /// `pool == nullptr` runs every zone inline on the calling thread;
  /// otherwise zones fan out across the pool.  Throws std::invalid_argument on zero rounds/budget or a
  /// non-positive period (GuardOptions::validate covers the rest).
  ResumableCampaign(hierarchy::LocalCloud& cloud, ThreadPool* pool,
                    const Config& config);
  ~ResumableCampaign();

  ResumableCampaign(const ResumableCampaign&) = delete;
  ResumableCampaign& operator=(const ResumableCampaign&) = delete;

  /// Runs rounds [rounds_done, config.rounds), writing a checkpoint
  /// after every `checkpoint.every_rounds` completed rounds (when
  /// enabled).  Returns the complete history, including rounds restored
  /// from a snapshot.  Idempotent once the campaign is complete.
  const std::vector<CampaignRoundRow>& run(linalg::Rng& rng) {
    return run_until(rng, config_.rounds);
  }

  /// Runs until `round` rounds are done (clamped to config.rounds) —
  /// the stepping hook the chaos-soak harness uses to check invariants
  /// between rounds and to kill the campaign mid-flight.
  const std::vector<CampaignRoundRow>& run_until(linalg::Rng& rng,
                                                 std::size_t round);

  /// Photographs the campaign: zone states, injector chains, guard
  /// breakers, accumulated metrics (when a registry is attached), the
  /// campaign Rng position, and the driver's own history/clock.
  fault::CampaignSnapshot snapshot(const linalg::Rng& rng) const;

  /// Overlays a snapshot onto this (freshly rebuilt) campaign world and
  /// rewinds `rng` to the snapshot position.  Throws
  /// fault::CheckpointError on any shape mismatch, before mutating
  /// campaign state.  When a metrics registry is attached it is cleared
  /// and rebuilt to exactly the snapshot's samples — call AFTER world
  /// construction so construction-time series are not double-counted.
  void restore(const fault::CampaignSnapshot& snap, linalg::Rng& rng);

  /// load(path) + restore.
  void restore_from_file(const std::string& path, linalg::Rng& rng);

  std::uint64_t rounds_done() const noexcept { return rounds_done_; }
  double virtual_now_s() const noexcept { return virtual_s_; }
  const std::vector<CampaignRoundRow>& history() const noexcept {
    return history_;
  }
  fault::ZoneGuard& guard() noexcept { return guard_; }

 private:
  /// Joins the in-flight checkpoint write, if any; when `rethrow`, an
  /// I/O failure captured by the writer thread is raised here as
  /// fault::CheckpointError (the destructor joins without rethrowing).
  void join_checkpoint_writer(bool rethrow);

  hierarchy::LocalCloud* cloud_;
  ThreadPool* pool_;
  Config config_;
  fault::ZoneGuard guard_;
  std::uint64_t rounds_done_ = 0;
  double virtual_s_ = 0.0;
  std::vector<CampaignRoundRow> history_;
  // Checkpoint capture happens synchronously on the campaign thread
  // (a pure function of campaign state at that round); encode and the
  // write+fsync+rename run on this writer, joined before the next
  // write, a restore, or destruction — so at most one write is in
  // flight and the snapshot file is always complete once the campaign
  // object is gone.  pending_bytes/round carry the completed write's
  // flight-recorder payload across the join (< 0 = nothing to report);
  // the writer's stores are ordered by thread::join.
  std::thread ckpt_writer_;
  std::exception_ptr ckpt_error_;
  std::uint32_t ckpt_pending_round_ = 0;
  double ckpt_pending_bytes_ = -1.0;
};

}  // namespace sensedroid::exec
