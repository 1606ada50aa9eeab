#include "exec/resumable.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fault/bytes.h"
#include "fault/fault.h"
#include "hierarchy/snapshot.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace sensedroid::exec {

namespace {

// Driver-private blob: the history rows and the campaign virtual clock.
// Versioned implicitly by the checkpoint file version — this is not a
// separate compatibility surface.
std::vector<std::uint8_t> encode_driver(
    const std::vector<CampaignRoundRow>& history, double virtual_s) {
  fault::ByteWriter w;
  w.f64(virtual_s);
  w.u64(history.size());
  for (const CampaignRoundRow& row : history) {
    w.u64(row.round);
    w.f64(row.nrmse);
    w.u64(row.measurements);
    w.u64(row.shed_zones);
    w.f64(row.virtual_s);
  }
  return w.take();
}

void decode_driver(std::span<const std::uint8_t> blob,
                   std::vector<CampaignRoundRow>& history,
                   double& virtual_s) {
  fault::ByteReader r(blob);
  virtual_s = r.f64();
  const std::size_t n = r.count(8 + 8 + 8 + 8 + 8);
  history.clear();
  history.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    CampaignRoundRow row;
    row.round = r.u64();
    row.nrmse = r.f64();
    row.measurements = static_cast<std::size_t>(r.u64());
    row.shed_zones = static_cast<std::size_t>(r.u64());
    row.virtual_s = r.f64();
    history.push_back(row);
  }
  r.expect_end();
}

fault::FaultInjector* injector_of(hierarchy::LocalCloud& cloud) {
  if (cloud.zone_count() == 0) return nullptr;
  return cloud.nanocloud(0).config().injector;
}

}  // namespace

ResumableCampaign::ResumableCampaign(hierarchy::LocalCloud& cloud,
                                     ThreadPool* pool, const Config& config)
    : cloud_(&cloud),
      pool_(pool),
      config_(config),
      guard_(cloud.zone_count(), config.guard) {
  if (config.rounds == 0) {
    throw std::invalid_argument("ResumableCampaign: rounds must be positive");
  }
  if (config.budget_per_zone == 0) {
    throw std::invalid_argument("ResumableCampaign: budget must be positive");
  }
  if (config.period_s <= 0.0) {
    throw std::invalid_argument("ResumableCampaign: period must be positive");
  }
  cloud_->set_guard(&guard_);
}

ResumableCampaign::~ResumableCampaign() {
  join_checkpoint_writer(/*rethrow=*/false);
  if (cloud_->guard() == &guard_) cloud_->set_guard(nullptr);
}

void ResumableCampaign::join_checkpoint_writer(bool rethrow) {
  if (ckpt_writer_.joinable()) ckpt_writer_.join();
  // The write's flight-recorder event is deferred to this join — the
  // byte count exists only once the writer has encoded the image — and
  // always lands on the campaign thread's ring (short-lived writer
  // threads must not mint rings of their own).
  if (ckpt_pending_bytes_ >= 0.0) {
    obs::fr_record(obs::FrEvent::kCheckpointWrite, ckpt_pending_round_,
                   ckpt_pending_bytes_);
    ckpt_pending_bytes_ = -1.0;
  }
  if (rethrow && ckpt_error_ != nullptr) {
    std::exception_ptr err = std::exchange(ckpt_error_, nullptr);
    std::rethrow_exception(err);
  }
}

const std::vector<CampaignRoundRow>& ResumableCampaign::run_until(
    linalg::Rng& rng, std::size_t round) {
  const std::size_t stop = std::min(round, config_.rounds);
  while (rounds_done_ < stop) {
    const hierarchy::RegionalResult res =
        ParallelCampaignRunner(*cloud_, pool_)
            .run_round_uniform(config_.budget_per_zone, rng);
    virtual_s_ += config_.period_s + res.virtual_s;
    CampaignRoundRow row;
    row.round = rounds_done_;
    row.nrmse = res.nrmse;
    row.measurements = res.total_measurements;
    row.shed_zones = res.shed_zones;
    row.virtual_s = virtual_s_;
    history_.push_back(row);
    ++rounds_done_;

    if (config_.checkpoint.enabled() &&
        rounds_done_ % config_.checkpoint.every_rounds == 0) {
      // Capture here, synchronously — the snapshot structs are a pure
      // function of campaign state at this round.  Encoding and the
      // file I/O (write + fsync + rename) ride the background writer:
      // both are pure functions of the captured structs, and together
      // they cost more than a round, so neither may stall the loop.
      // Joining the previous write first keeps a single file in flight;
      // a captured I/O error surfaces on that join.  Deliberately
      // counter-free: a checkpoint-armed run must keep the same
      // deterministic metric set as an unarmed one, so the write leaves
      // only a (join-deferred) flight-recorder trace.
      fault::CampaignSnapshot snap = snapshot(rng);
      join_checkpoint_writer(/*rethrow=*/true);
      ckpt_pending_round_ = static_cast<std::uint32_t>(rounds_done_);
      ckpt_writer_ = std::thread(
          [this, path = config_.checkpoint.path,
           s = std::move(snap)]() noexcept {
            try {
              ckpt_pending_bytes_ =
                  static_cast<double>(fault::write_atomic(path, s));
            } catch (...) {
              ckpt_error_ = std::current_exception();
            }
          });
    }
  }
  return history_;
}

fault::CampaignSnapshot ResumableCampaign::snapshot(
    const linalg::Rng& rng) const {
  fault::CampaignSnapshot snap;
  snap.rounds_done = rounds_done_;
  snap.virtual_s = virtual_s_;
  snap.campaign_rng = rng.state();
  if (const fault::FaultInjector* inj = injector_of(*cloud_)) {
    snap.injector = inj->save_state();
  }
  snap.guard = guard_.save_state();
  if (const obs::MetricsRegistry* reg = obs::registry()) {
    snap.metrics = reg->samples();
  }
  snap.zones = hierarchy::snapshot_zones(*cloud_);
  snap.driver = encode_driver(history_, virtual_s_);
  return snap;
}

void ResumableCampaign::restore(const fault::CampaignSnapshot& snap,
                                linalg::Rng& rng) {
  // An in-flight periodic write must land (or fail) before state is
  // replaced under it.
  join_checkpoint_writer(/*rethrow=*/true);
  if (snap.rounds_done > config_.rounds) {
    throw fault::CheckpointError(
        "ResumableCampaign: snapshot is ahead of this campaign's rounds");
  }
  // Decode/validate everything that can fail BEFORE mutating anything:
  // the driver blob, the zone shapes, then the stateful overlays (which
  // each follow the same decode-fully-then-apply contract internally).
  std::vector<CampaignRoundRow> history;
  double virtual_s = 0.0;
  try {
    decode_driver(snap.driver, history, virtual_s);
  } catch (const fault::CodecError& e) {
    throw fault::CheckpointError(std::string("ResumableCampaign: ") +
                                 e.what());
  }
  hierarchy::restore_zones(*cloud_, snap.zones);

  fault::FaultInjector* inj = injector_of(*cloud_);
  if (inj != nullptr && !snap.injector.empty()) {
    inj->restore_state(snap.injector);
  }
  if (!snap.guard.empty()) guard_.restore_state(snap.guard);
  if (obs::MetricsRegistry* reg = obs::registry()) {
    fault::restore_metrics(*reg, snap.metrics);
  }
  rng.set_state(snap.campaign_rng);
  rounds_done_ = snap.rounds_done;
  virtual_s_ = virtual_s;
  history_ = std::move(history);
  obs::fr_record(obs::FrEvent::kCheckpointRestore,
                 static_cast<std::uint32_t>(rounds_done_),
                 static_cast<double>(snap.zones.size()));
}

void ResumableCampaign::restore_from_file(const std::string& path,
                                          linalg::Rng& rng) {
  // Join before load, not just before overlay: `path` may be the very
  // file the writer is about to rename over.
  join_checkpoint_writer(/*rethrow=*/true);
  restore(fault::load(path), rng);
}

}  // namespace sensedroid::exec
