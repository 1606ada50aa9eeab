// Smart spaces (Section 1's third use case): occupants' phones map the
// floor's temperature field so HVAC can trim hot/cold spots, while
// per-occupant privacy policies control what leaves each phone — the
// "transparency, full user control" posture of Section 5.
#include <cstdio>

#include "context/is_indoor.h"
#include "field/generators.h"
#include "field/zones.h"
#include "exec/campaign_runner.h"
#include "hierarchy/adaptive.h"
#include "hierarchy/localcloud.h"
#include "sensing/signals.h"

using namespace sensedroid;

int main() {
  linalg::Rng rng(404);

  // One office floor: 20x12 cells, cool core, warm server room + windows.
  field::GaussianSource sources[] = {
      {6.0, 17.0, 2.0, 4.0},   // server room
      {2.0, 2.0, 3.0, 2.0},    // sunny corner
  };
  const auto truth = field::gaussian_plume_field(20, 12, sources, 21.0);
  field::ZoneGrid grid(20, 12, 2, 2);

  // Phones of the occupants; some disable sharing, facility sensors
  // backfill. Budgets come from yesterday's field history (prior data).
  field::TraceSet history;
  history.add(truth);  // stationary building: yesterday looks like today
  std::vector<field::TraceSet> zone_history;
  for (std::size_t id = 0; id < grid.zone_count(); ++id) {
    field::TraceSet z;
    z.add(grid.extract(truth, id));
    zone_history.push_back(std::move(z));
  }
  const auto decisions = hierarchy::decide_budgets_from_traces(
      zone_history, grid, linalg::BasisKind::kDct);

  hierarchy::NanoCloudConfig config;
  config.coverage = 0.6;                  // sparse occupancy
  config.infrastructure_backfill = true;  // thermostats fill empty desks
  hierarchy::LocalCloud lc(truth, grid, config, rng);

  // Facility dashboard: alert when any reading exceeds comfort band.
  int comfort_alerts = 0;
  middleware::RecordFilter hot;
  hot.value_min = 24.5;
  for (std::size_t z = 0; z < lc.zone_count(); ++z) {
    lc.nanocloud(z).broker().queries().subscribe(
        hot, [&comfort_alerts](const middleware::Record&) {
          ++comfort_alerts;
        });
  }

  const auto result = exec::ParallelCampaignRunner(lc).run_round(decisions, rng);
  std::printf("floor map: NRMSE %.3f from %zu readings (%zu cells)\n",
              result.nrmse, result.total_measurements, truth.size());
  std::printf("comfort alerts fired: %d\n", comfort_alerts);

  // HVAC decision per zone: trim where the reconstructed mean runs hot.
  std::printf("\nzone  mean-C  action\n");
  for (std::size_t id = 0; id < grid.zone_count(); ++id) {
    const double mean = grid.extract(result.reconstruction, id).mean();
    const char* action = mean > 23.0   ? "increase cooling"
                         : mean < 20.5 ? "reduce cooling"
                                       : "hold";
    std::printf("%4zu  %6.1f  %s\n", id, mean, action);
  }

  // Occupancy sensing for lighting: fuse phone GPS/WiFi into IsIndoor to
  // learn which occupants are actually on the floor.
  const auto schedule = sensing::indoor_schedule(512, 80.0, rng);
  auto gps = sensing::gps_quality_trace(schedule, rng);
  auto wifi = sensing::wifi_count_trace(schedule, rng);
  sensing::SensingProbe gps_probe(
      sensing::SimulatedSensor(
          sensing::SensorKind::kGps, sensing::QualityTier::kMidrange,
          [&gps](std::size_t i) { return gps[i % gps.size()]; }, 5),
      {.mode = sensing::SamplingMode::kCompressive, .window = 256,
       .budget = 40, .seed = 5});
  sensing::SensingProbe wifi_probe(
      sensing::SimulatedSensor(
          sensing::SensorKind::kWifiScanner, sensing::QualityTier::kMidrange,
          [&wifi](std::size_t i) { return wifi[i % wifi.size()]; }, 6),
      {.mode = sensing::SamplingMode::kCompressive, .window = 256,
       .budget = 40, .seed = 6});
  const auto occupancy =
      context::evaluate_indoor_detector(schedule, gps_probe, wifi_probe);
  std::printf(
      "\noccupancy detector: %.0f%% accurate at %.1f J for the day "
      "(compressive GPS+WiFi duty cycling)\n",
      100.0 * occupancy.accuracy, occupancy.sensing_energy_j);
  return 0;
}
