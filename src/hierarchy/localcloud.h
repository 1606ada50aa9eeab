// The LocalCloud (Fig. 1): a head broker federating the NanoClouds of its
// region.  "This hierarchy allows the nodes to collaborate through the
// broker ... and concatenate the results of the NCs for the local
// region."  The head receives each NC's reconstruction summary (support
// coefficients, not raw samples) and stitches the regional field.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/breaker.h"
#include "field/zones.h"
#include "hierarchy/adaptive.h"
#include "hierarchy/nanocloud.h"
#include "sim/radio.h"

namespace sensedroid::hierarchy {

/// Aggregated accounting of one regional gathering round.
struct RegionalResult {
  field::SpatialField reconstruction;   ///< stitched regional field
  double nrmse = 0.0;                   ///< against regional ground truth
  std::size_t total_measurements = 0;   ///< phone readings taken
  std::size_t uplink_bytes = 0;         ///< NC broker -> head traffic
  double uplink_energy_j = 0.0;         ///< radio energy of those uplinks
  double node_energy_j = 0.0;           ///< summed phone energy
  middleware::GatherStats stats;        ///< summed NC gather stats
  std::vector<double> zone_nrmse;       ///< per-zone error map (Fig. 5)
  std::size_t failovers = 0;            ///< zones served by a stand-in broker
  std::size_t degraded_zones = 0;       ///< zones flagged degraded this round
  std::size_t outliers_rejected = 0;    ///< readings screened by MAD, summed
  std::size_t shed_zones = 0;           ///< zones skipped by admission control
  double virtual_s = 0.0;               ///< summed zone gather virtual time
};

/// A LocalCloud over a regional ground-truth field partitioned by a
/// ZoneGrid, one NanoCloud per zone.  The cloud holds the region's
/// state; exec::ParallelCampaignRunner drives its rounds (gather every
/// zone, then stitch at the head).
class LocalCloud {
 public:
  /// Builds one NC per zone.  `truth` must outlive the cloud.  Each zone's
  /// NanoCloud gets `nc_config` with zone_id overridden to its zone index,
  /// so a FaultPlan CrashWindow targets zones by that index.
  LocalCloud(const field::SpatialField& truth, const field::ZoneGrid& grid,
             const NanoCloudConfig& nc_config, Rng& rng,
             sim::LinkModel uplink = sim::LinkModel::of(sim::RadioKind::kWiFi));

  std::size_t zone_count() const noexcept { return clouds_.size(); }
  NanoCloud& nanocloud(std::size_t id) { return clouds_.at(id); }
  const field::ZoneGrid& grid() const noexcept { return grid_; }
  /// Regional ground truth (what a round scores nrmse against).
  const field::SpatialField& truth() const noexcept { return *truth_; }
  /// NC-broker -> head uplink radio model (a round's uplink accounting).
  const sim::LinkModel& uplink_link() const noexcept { return uplink_; }

  /// Attaches (or detaches, with nullptr) the degradation guard: a round
  /// then runs its breaker/budget admission plan before the zones,
  /// substitutes NanoCloud::shed_result for refused zones, and records
  /// every admitted zone's outcome back — all on the driver thread in
  /// ascending zone order, so admissions are deterministic.  Non-owning;
  /// the guard must outlive the cloud's rounds.  A disabled or absent
  /// guard leaves rounds bit-identical to pre-guard builds.
  void set_guard(fault::ZoneGuard* guard) noexcept { guard_ = guard; }
  fault::ZoneGuard* guard() const noexcept { return guard_; }

 private:
  const field::SpatialField* truth_;
  field::ZoneGrid grid_;
  // Zone ground truths are materialized before the NanoClouds because each
  // NC keeps a pointer to its zone; the vector is fully reserved up front
  // so those pointers stay stable.
  std::vector<field::SpatialField> zone_truths_;
  std::vector<NanoCloud> clouds_;
  sim::LinkModel uplink_;
  fault::ZoneGuard* guard_ = nullptr;
};

}  // namespace sensedroid::hierarchy
