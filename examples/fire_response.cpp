// Disaster & emergency response (Section 1's first use case): a fire
// front crosses a facility; the LocalCloud maps it, criticality steering
// puts extra samples on the burning zones, and responders subscribe to
// hot-spot alerts through the broker's continuous-query service.
#include <cstdio>
#include <vector>

#include "field/generators.h"
#include "field/zones.h"
#include "exec/campaign_runner.h"
#include "hierarchy/adaptive.h"
#include "hierarchy/localcloud.h"
#include "hierarchy/publiccloud.h"

using namespace sensedroid;

int main() {
  linalg::Rng rng(112);

  // 24x24 facility grid; a fire burning in the north-east corner.
  const std::size_t kW = 24, kH = 24;
  std::vector<field::FireRegion> regions{
      {5.0, 18.0, 4.0, 5.0, 600.0},   // main seat of fire
      {10.0, 21.0, 2.0, 2.0, 450.0},  // spot fire downwind
  };
  const auto truth = field::fire_front_field(kW, kH, regions, 20.0, 2.5);
  std::printf("facility: %zux%zu cells, temperature %.0f..%.0f C\n", kW, kH,
              truth.min(), truth.max());

  // 3x3 zones; incident command marks the NE zones critical.
  field::ZoneGrid grid(kW, kH, 3, 3);
  std::vector<hierarchy::ZonePolicy> policies(grid.zone_count());
  policies[2].criticality = 3.0;  // NE corner zone
  policies[1].criticality = 2.0;  // adjacent
  policies[5].criticality = 2.0;

  const auto decisions = hierarchy::decide_budgets_live(
      truth, grid, linalg::BasisKind::kDct, policies);
  std::printf("\nzone  sparsity  samples  compression\n");
  for (const auto& d : decisions) {
    std::printf("%4zu  %8zu  %7zu  %10.0f%%\n", d.zone_id, d.sparsity,
                d.measurements, 100.0 * d.compression_ratio);
  }

  // Stand up the LocalCloud (responder phones + building sensors) and
  // register a hot-spot alert before the round runs.
  hierarchy::NanoCloudConfig config;
  config.coverage = 0.8;
  config.infrastructure_backfill = true;  // smoke detectors fill gaps
  hierarchy::LocalCloud lc(truth, grid, config, rng);

  int alerts = 0;
  middleware::RecordFilter danger;
  danger.value_min = 300.0;  // C — untenable for unprotected personnel
  for (std::size_t z = 0; z < lc.zone_count(); ++z) {
    lc.nanocloud(z).broker().queries().subscribe(
        danger, [&alerts](const middleware::Record&) { ++alerts; });
  }

  const auto result = exec::ParallelCampaignRunner(lc).run_round(decisions, rng);
  std::printf(
      "\ngathered %zu readings, field NRMSE %.3f, phones spent %.1f mJ\n",
      result.total_measurements, result.nrmse,
      1e3 * result.node_energy_j);

  // Incident perimeter from the public-cloud assembly.
  hierarchy::PublicCloud cloud(kW, kH);
  cloud.integrate({0, 0}, result.reconstruction, /*timestamp=*/60.0);
  const auto hot = cloud.cells_above(300.0);
  std::printf("perimeter assessment: %zu cells above 300 C\n", hot.size());
  if (!hot.empty()) {
    std::size_t i_min = kH, i_max = 0, j_min = kW, j_max = 0;
    for (const auto& h : hot) {
      i_min = std::min(i_min, h.i);
      i_max = std::max(i_max, h.i);
      j_min = std::min(j_min, h.j);
      j_max = std::max(j_max, h.j);
    }
    std::printf("evacuation box: rows %zu-%zu, cols %zu-%zu\n", i_min, i_max,
                j_min, j_max);
  }
  std::printf("responder dashboards received %d hot-reading alerts via "
              "continuous queries\n", alerts);
  return 0;
}
