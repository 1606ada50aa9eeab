// Tests for the hierarchy tiers (NanoCloud, LocalCloud, PublicCloud,
// adaptive budgeting) and the baselines — including the end-to-end
// integration paths of experiments E2/E4/E10.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "exec/campaign_runner.h"
#include "baselines/cdg_luo.h"
#include "baselines/dense_gathering.h"
#include "baselines/solo_sensing.h"
#include "field/generators.h"
#include "field/traces.h"
#include "hierarchy/adaptive.h"
#include "hierarchy/localcloud.h"
#include "hierarchy/nanocloud.h"
#include "hierarchy/publiccloud.h"

namespace se = sensedroid::exec;
namespace sh = sensedroid::hierarchy;
namespace sb = sensedroid::baselines;
namespace sf = sensedroid::field;
namespace sl = sensedroid::linalg;
namespace sn = sensedroid::sensing;

namespace {

sf::SpatialField smooth_zone(std::size_t w, std::size_t h,
                             std::uint64_t seed) {
  sl::Rng rng(seed);
  return sf::random_plume_field(w, h, 2, rng, 20.0);
}

}  // namespace

// ----------------------------------------------------------- NanoCloud ----

TEST(NanoCloud, BuildsNodesPerCoverage) {
  auto zone = smooth_zone(8, 8, 1);
  sl::Rng rng(2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sh::NanoCloud nc(zone, cfg, rng);
  EXPECT_EQ(nc.covered_cells(), 64u);
  EXPECT_EQ(nc.node_count(), 64u);
  EXPECT_EQ(nc.broker().registry().size(), 64u);
}

TEST(NanoCloud, PartialCoverageWithBackfill) {
  auto zone = smooth_zone(8, 8, 3);
  sl::Rng rng(4);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 0.5;
  cfg.infrastructure_backfill = true;
  sh::NanoCloud nc(zone, cfg, rng);
  EXPECT_EQ(nc.covered_cells(), 64u);  // crowd + infrastructure fill all
}

TEST(NanoCloud, ValidatesConstruction) {
  auto zone = smooth_zone(4, 4, 5);
  sl::Rng rng(6);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.5;
  EXPECT_THROW(sh::NanoCloud(zone, cfg, rng), std::invalid_argument);
}

TEST(NanoCloud, CompressiveGatherReconstructsSmoothField) {
  auto zone = smooth_zone(12, 12, 7);
  sl::Rng rng(8);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sh::NanoCloud nc(zone, cfg, rng);
  auto res = nc.gather(60, rng);  // ~40% of 144 cells
  EXPECT_GT(res.m_used, 50u);
  EXPECT_LT(res.nrmse, 0.05);
  EXPECT_GT(res.support_size, 0u);
  EXPECT_GT(res.node_energy_j, 0.0);
  EXPECT_GT(res.stats.commands_sent, 0u);
}

TEST(NanoCloud, GatherClampsBudgetToCoverage) {
  auto zone = smooth_zone(6, 6, 9);
  sl::Rng rng(10);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 0.5;
  sh::NanoCloud nc(zone, cfg, rng);
  auto res = nc.gather(1000, rng);
  EXPECT_LE(res.m_requested, nc.covered_cells());
  EXPECT_THROW(nc.gather(0, rng), std::invalid_argument);
}

TEST(NanoCloud, DenseGatherBeatsTinyBudget) {
  auto zone = smooth_zone(10, 10, 11);
  sl::Rng rng(12);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sh::NanoCloud nc(zone, cfg, rng);
  auto dense = nc.gather_dense(rng);
  sl::Rng rng2(12);
  auto tiny = nc.gather(4, rng2);
  EXPECT_LT(dense.nrmse, tiny.nrmse + 1e-9);
}

TEST(NanoCloud, MoreMeasurementsReduceError) {
  auto zone = smooth_zone(12, 12, 13);
  double prev = 1e9;
  int improvements = 0;
  for (std::size_t m : {10u, 30u, 70u, 120u}) {
    double err = 0.0;
    for (int t = 0; t < 4; ++t) {
      sl::Rng rng(14 + t);
      sh::NanoCloudConfig cfg;
      cfg.coverage = 1.0;
      sh::NanoCloud nc(zone, cfg, rng);
      err += nc.gather(m, rng).nrmse;
    }
    if (err < prev) ++improvements;
    prev = err;
  }
  EXPECT_GE(improvements, 3);
}

// ------------------------------------------------------------ adaptive ----

TEST(Adaptive, LiveBudgetsFollowZoneDetail) {
  sl::Rng rng(15);
  auto f = sf::quadrant_contrast_field(16, 16, rng);
  sf::ZoneGrid grid(16, 16, 2, 2);
  auto decisions =
      sh::decide_budgets_live(f, grid, sl::BasisKind::kDct);
  ASSERT_EQ(decisions.size(), 4u);
  // The flat quadrant (id 0) must get the smallest budget.
  std::size_t flat_m = decisions[0].measurements;
  std::size_t max_m = 0;
  for (const auto& d : decisions) max_m = std::max(max_m, d.measurements);
  EXPECT_LT(flat_m * 2, max_m + 1);
  for (const auto& d : decisions) {
    EXPECT_GE(d.measurements, 1u);
    EXPECT_LE(d.measurements, grid.zone(d.zone_id).size());
    EXPECT_NEAR(d.compression_ratio,
                static_cast<double>(d.measurements) /
                    static_cast<double>(grid.zone(d.zone_id).size()),
                1e-12);
  }
}

TEST(Adaptive, CriticalityBuysMoreSamples) {
  sl::Rng rng(16);
  auto f = sf::quadrant_contrast_field(16, 16, rng);
  sf::ZoneGrid grid(16, 16, 2, 2);
  std::vector<sh::ZonePolicy> policies(4);
  policies[3].criticality = 3.0;
  auto base = sh::decide_budgets_live(f, grid, sl::BasisKind::kDct);
  auto boosted =
      sh::decide_budgets_live(f, grid, sl::BasisKind::kDct, policies);
  EXPECT_GE(boosted[3].measurements, base[3].measurements);
  EXPECT_EQ(boosted[0].measurements, base[0].measurements);
  policies[0].criticality = -1.0;
  EXPECT_THROW(
      sh::decide_budgets_live(f, grid, sl::BasisKind::kDct, policies),
      std::invalid_argument);
}

TEST(Adaptive, TraceBudgetsMatchLiveOnStationaryFields) {
  sl::Rng rng(17);
  sf::ZoneGrid grid(12, 12, 2, 2);
  auto f = sf::random_plume_field(12, 12, 3, rng, 10.0);
  std::vector<sf::TraceSet> traces(grid.zone_count());
  for (std::size_t id = 0; id < grid.zone_count(); ++id) {
    traces[id].add(grid.extract(f, id));  // history == present
  }
  auto live = sh::decide_budgets_live(f, grid, sl::BasisKind::kDct);
  auto hist =
      sh::decide_budgets_from_traces(traces, grid, sl::BasisKind::kDct);
  for (std::size_t id = 0; id < grid.zone_count(); ++id) {
    EXPECT_EQ(live[id].measurements, hist[id].measurements);
  }
  std::vector<sf::TraceSet> wrong(2);
  EXPECT_THROW(
      sh::decide_budgets_from_traces(wrong, grid, sl::BasisKind::kDct),
      std::invalid_argument);
}

// ---------------------------------------------------------- LocalCloud ----

TEST(LocalCloud, GathersAndStitchesRegion) {
  sl::Rng rng(18);
  auto f = sf::random_plume_field(16, 16, 3, rng, 15.0);
  sf::ZoneGrid grid(16, 16, 2, 2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sh::LocalCloud lc(f, grid, cfg, rng);
  EXPECT_EQ(lc.zone_count(), 4u);
  auto res = se::ParallelCampaignRunner(lc).run_round_uniform(40, rng);
  EXPECT_LT(res.nrmse, 0.1);
  EXPECT_GT(res.total_measurements, 100u);
  EXPECT_GT(res.uplink_bytes, 0u);
  EXPECT_GT(res.uplink_energy_j, 0.0);
  EXPECT_EQ(res.zone_nrmse.size(), 4u);
}

TEST(LocalCloud, AdaptiveBeatsUniformAtEqualBudget) {
  // Experiment E2 in miniature: a field with contrasting quadrants, same
  // total measurement budget split uniformly vs by local sparsity.
  sl::Rng field_rng(19);
  auto f = sf::quadrant_contrast_field(16, 16, field_rng);
  sf::ZoneGrid grid(16, 16, 2, 2);

  auto decisions = sh::decide_budgets_live(f, grid, sl::BasisKind::kDct);
  const std::size_t total = sh::total_measurements(decisions);
  const std::size_t per_zone = total / grid.zone_count();

  double adaptive_err = 0.0, uniform_err = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    sl::Rng rng(100 + t);
    sh::NanoCloudConfig cfg;
    cfg.coverage = 1.0;
    sh::LocalCloud lc(f, grid, cfg, rng);
    adaptive_err +=
        se::ParallelCampaignRunner(lc).run_round(decisions, rng).nrmse;
    sl::Rng rng2(100 + t);
    sh::LocalCloud lc2(f, grid, cfg, rng2);
    uniform_err +=
        se::ParallelCampaignRunner(lc2).run_round_uniform(per_zone, rng2)
            .nrmse;
  }
  EXPECT_LT(adaptive_err, uniform_err);
}

TEST(LocalCloud, ValidatesDecisions) {
  sl::Rng rng(20);
  auto f = sf::random_plume_field(8, 8, 2, rng);
  sf::ZoneGrid grid(8, 8, 2, 2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sh::LocalCloud lc(f, grid, cfg, rng);
  std::vector<sh::ZoneDecision> bad(3);
  se::ParallelCampaignRunner runner(lc);
  EXPECT_THROW(runner.run_round(bad, rng), std::invalid_argument);
  std::vector<sh::ZoneDecision> dup(4);
  for (auto& d : dup) d.zone_id = 0;
  EXPECT_THROW(runner.run_round(dup, rng), std::invalid_argument);
}

// --------------------------------------------------------- PublicCloud ----

TEST(PublicCloud, IntegratesRegionsAndAnswersQueries) {
  sh::PublicCloud cloud(16, 16);
  sf::SpatialField region(8, 8, 30.0);
  cloud.integrate({0, 0}, region, 10.0);
  sf::SpatialField region2(8, 8, 10.0);
  cloud.integrate({8, 8}, region2, 20.0);
  EXPECT_EQ(cloud.regions_integrated(), 2u);
  EXPECT_DOUBLE_EQ(cloud.last_update_time(), 20.0);
  EXPECT_DOUBLE_EQ(cloud.value_at(0, 0), 30.0);
  EXPECT_DOUBLE_EQ(cloud.value_at(12, 12), 10.0);
  EXPECT_DOUBLE_EQ(cloud.value_at(0, 12), 0.0);  // never covered
  EXPECT_DOUBLE_EQ(cloud.region_mean(0, 0, 8, 8), 30.0);
  auto hot = cloud.cells_above(25.0);
  EXPECT_EQ(hot.size(), 64u);
  EXPECT_THROW(cloud.value_at(99, 0), std::out_of_range);
  EXPECT_THROW(sh::PublicCloud(0, 4), std::invalid_argument);
}

TEST(PublicCloud, IntegrateRejectsOversizedRegion) {
  sh::PublicCloud cloud(8, 8);
  sf::SpatialField big(9, 9, 1.0);
  EXPECT_THROW(cloud.integrate({0, 0}, big), std::out_of_range);
}

// ----------------------------------------------------------- baselines ----

TEST(Baselines, CdgGlobalGatherReconstructs) {
  sl::Rng rng(21);
  auto f = sf::random_plume_field(12, 12, 2, rng, 5.0);
  auto res = sb::cdg_global_gather(f, 70, sl::BasisKind::kDct, 0.01, rng);
  EXPECT_LT(res.nrmse, 0.1);
  EXPECT_EQ(res.measurements, 70u);
  EXPECT_THROW(sb::cdg_global_gather(f, 0, sl::BasisKind::kDct, 0.0, rng),
               std::invalid_argument);
  EXPECT_THROW(sb::cdg_global_gather(f, 145, sl::BasisKind::kDct, 0.0, rng),
               std::invalid_argument);
}

TEST(Baselines, TransmissionModelsMatchTheory) {
  EXPECT_EQ(sb::chain_transmissions_naive(10), 55u);
  EXPECT_EQ(sb::chain_transmissions_cdg(10, 3), 30u);
  // Hybrid: 1+2+3+3+...+3 = 1+2+3*8 = 27.
  EXPECT_EQ(sb::chain_transmissions_hybrid(10, 3), 27u);
  EXPECT_EQ(sb::star_transmissions_dense(10), 10u);
  EXPECT_EQ(sb::star_transmissions_compressive(3), 6u);
  // The O(N^2) -> O(NM) reduction the paper cites.
  EXPECT_GT(sb::chain_transmissions_naive(512),
            10 * sb::chain_transmissions_cdg(512, 20) / 4);
}

TEST(Baselines, DenseGatherErrorMatchesNoiseFloor) {
  sl::Rng rng(22);
  sf::SpatialField f(16, 16, 100.0);
  auto clean = sb::dense_gather(f, 0.0, rng);
  EXPECT_DOUBLE_EQ(clean.nrmse, 0.0);
  auto noisy = sb::dense_gather(f, 1.0, rng);
  EXPECT_NEAR(noisy.nrmse, 0.01, 0.005);  // sigma / |field|
  EXPECT_EQ(noisy.measurements, 256u);
}

TEST(Baselines, CollaborationSavesMoreThan80Percent) {
  // E4: the paper's >80% saving claim, with GPS sensing and a 50-phone NC.
  sb::CollaborationScenario s;
  s.n_users = 50;
  s.samples_needed = 64;
  s.m_collaborative = 16;  // compressive budget
  auto cmp = sb::compare_collaboration(s);
  EXPECT_GT(cmp.savings_fraction, 0.8);
  EXPECT_LT(cmp.collab_energy_j, cmp.solo_energy_j);
}

TEST(Baselines, CollaborationSavingsGrowWithGroupSize) {
  double prev = -1.0;
  for (std::size_t users : {2u, 10u, 50u, 200u}) {
    sb::CollaborationScenario s;
    s.n_users = users;
    s.samples_needed = 64;
    s.m_collaborative = 16;
    const auto cmp = sb::compare_collaboration(s);
    EXPECT_GT(cmp.savings_fraction, prev);
    prev = cmp.savings_fraction;
  }
}

TEST(Baselines, CollaborationValidates) {
  sb::CollaborationScenario s;
  s.n_users = 0;
  EXPECT_THROW(sb::compare_collaboration(s), std::invalid_argument);
}

// --------------------------------------------------- E2E integration ----

TEST(Integration, FullStackFieldSenseMaking) {
  // Ground truth -> LocalCloud gather (adaptive) -> PublicCloud assembly
  // -> application query, end to end.
  sl::Rng rng(23);
  auto f = sf::random_plume_field(16, 16, 3, rng, 20.0);
  sf::ZoneGrid grid(16, 16, 2, 2);
  auto decisions = sh::decide_budgets_live(f, grid, sl::BasisKind::kDct);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 0.95;
  cfg.infrastructure_backfill = true;
  sh::LocalCloud lc(f, grid, cfg, rng);
  auto regional = se::ParallelCampaignRunner(lc).run_round(decisions, rng);
  EXPECT_LT(regional.nrmse, 0.15);

  sh::PublicCloud cloud(16, 16);
  cloud.integrate({0, 0}, regional.reconstruction, 1.0);
  // The reconstructed global mean must track the truth.
  EXPECT_NEAR(cloud.global_field().mean(), f.mean(), 0.5);
}
