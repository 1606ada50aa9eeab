#include "hierarchy/localcloud.h"

#include <stdexcept>

namespace sensedroid::hierarchy {

LocalCloud::LocalCloud(const field::SpatialField& truth,
                       const field::ZoneGrid& grid,
                       const NanoCloudConfig& nc_config, Rng& rng,
                       sim::LinkModel uplink)
    : truth_(&truth), grid_(grid), uplink_(uplink) {
  if (truth.width() != grid.field_width() ||
      truth.height() != grid.field_height()) {
    throw std::invalid_argument("LocalCloud: grid/field shape mismatch");
  }
  clouds_.reserve(grid.zone_count());
  zone_truths_.reserve(grid.zone_count());
  for (std::size_t id = 0; id < grid.zone_count(); ++id) {
    zone_truths_.push_back(grid.extract(truth, id));
  }
  for (std::size_t id = 0; id < grid.zone_count(); ++id) {
    NanoCloudConfig zone_config = nc_config;
    zone_config.zone_id = static_cast<std::uint32_t>(id);
    clouds_.emplace_back(zone_truths_[id], zone_config, rng);
  }
}

}  // namespace sensedroid::hierarchy
