// Cross-layer end-to-end scenarios: these tests wire several subsystems
// together the way an application would, and assert on the *outcome* of
// the whole pipeline rather than any single module.
#include <gtest/gtest.h>

#include <algorithm>

#include "exec/campaign_runner.h"
#include "context/is_indoor.h"
#include "field/generators.h"
#include "hierarchy/adaptive.h"
#include "hierarchy/localcloud.h"
#include "hierarchy/publiccloud.h"
#include "incentives/auction.h"
#include "incentives/recruitment.h"
#include "scheduling/adaptive_sampling.h"
#include "scheduling/multi_radio.h"

namespace se = sensedroid::exec;
namespace sh = sensedroid::hierarchy;
namespace sf = sensedroid::field;
namespace sl = sensedroid::linalg;
namespace si = sensedroid::incentives;
namespace sd = sensedroid::scheduling;
namespace ss = sensedroid::sim;

TEST(EndToEnd, TwoRegionsAssembleIntoOneGlobalPicture) {
  // Two LocalClouds cover adjacent districts; the PublicCloud must
  // assemble them into one field whose hot spots land where the truth
  // puts them.
  sl::Rng rng(1);
  sf::GaussianSource west_src{8.0, 4.0, 3.0, 10.0};
  auto west = sf::gaussian_plume_field(16, 16, {&west_src, 1}, 20.0);
  auto east = sf::SpatialField(16, 16, 20.0);  // quiet district

  sf::ZoneGrid grid(16, 16, 2, 2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 0.95;
  cfg.infrastructure_backfill = true;

  sh::LocalCloud lc_west(west, grid, cfg, rng);
  sh::LocalCloud lc_east(east, grid, cfg, rng);
  const auto res_west =
      se::ParallelCampaignRunner(lc_west).run_round_uniform(40, rng);
  const auto res_east =
      se::ParallelCampaignRunner(lc_east).run_round_uniform(40, rng);

  sh::PublicCloud cloud(32, 16);
  cloud.integrate({0, 0}, res_west.reconstruction, 1.0);
  cloud.integrate({0, 16}, res_east.reconstruction, 2.0);

  const auto hot = cloud.cells_above(25.0);
  ASSERT_FALSE(hot.empty());
  // Every hotspot must be in the west half (columns < 16).
  for (const auto& h : hot) EXPECT_LT(h.j, 16u);
  // The east mean must read quiet.
  EXPECT_NEAR(cloud.region_mean(0, 16, 16, 16), 20.0, 0.5);
}

TEST(EndToEnd, HotspotDetectionTriggersCriticalityReplanning) {
  // Round 1: uniform budgets.  The application inspects the stitched
  // field, marks the hottest zone critical, and round 2 must cut that
  // zone's error.
  sl::Rng rng(2);
  std::vector<sf::FireRegion> regions{{4.0, 20.0, 3.0, 3.0, 500.0}};
  const auto truth = sf::fire_front_field(24, 24, regions, 20.0, 2.0);
  sf::ZoneGrid grid(24, 24, 3, 3);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;

  sh::LocalCloud lc(truth, grid, cfg, rng);
  se::ParallelCampaignRunner runner(lc);
  const auto round1 = runner.run_round_uniform(12, rng);

  // Find the hottest zone in the *reconstruction* (not the truth).
  std::size_t hottest = 0;
  double hottest_mean = -1e18;
  for (std::size_t z = 0; z < grid.zone_count(); ++z) {
    const double m = grid.extract(round1.reconstruction, z).mean();
    if (m > hottest_mean) {
      hottest_mean = m;
      hottest = z;
    }
  }
  // The fire is in zone 2 (NE corner of a 3x3 grid).
  EXPECT_EQ(hottest, 2u);

  std::vector<sh::ZonePolicy> policies(grid.zone_count());
  policies[hottest].criticality = 4.0;
  const auto decisions = sh::decide_budgets_live(
      truth, grid, sl::BasisKind::kDct, policies);
  const auto round2 = runner.run_round(decisions, rng);
  EXPECT_LT(round2.zone_nrmse[hottest], round1.zone_nrmse[hottest]);
}

TEST(EndToEnd, AuctionRecruitsThenCloudGathers) {
  // The platform buys participation with RADP-VPC, then fields a
  // gathering round sized by how many sellers it won.
  sl::Rng rng(3);
  auto pop = si::make_population(40, 0.5, 2.0, {0, 0, 100, 100}, rng);
  si::RadpVpc::Params params;
  params.k = 25;
  params.reserve_price = 3.0;
  si::RadpVpc auction(params);
  const auto round = auction.run_round(pop);
  ASSERT_GE(round.winners.size(), 20u);

  const auto truth = sf::random_plume_field(12, 12, 2, rng, 20.0);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sh::NanoCloud nc(truth, cfg, rng);
  const auto gather = nc.gather(round.winners.size(), rng);
  EXPECT_LT(gather.nrmse, 0.1);
  // Platform economics stay sane: payment covers every winner's cost.
  for (auto id : round.winners) {
    EXPECT_GE(pop[id].utility(), -1e-9);
  }
}

TEST(EndToEnd, AdaptiveBudgetTracksEvolvingField) {
  // A drifting plume sensed round after round; the adaptive sampler
  // must keep the reconstruction under its error target in steady state
  // without pinning the budget at max.
  sl::Rng rng(4);
  auto traces = sf::evolving_plume_traces(10, 10, 2, 20, rng, 0.5);
  sd::AdaptiveSampler sampler({.m_min = 10, .m_max = 80, .m_initial = 20,
                               .target_error = 0.08, .grow = 1.5,
                               .shrink = 4});
  std::size_t budget_sum = 0;
  double settled_err = 0.0;
  std::size_t settled_rounds = 0;
  for (std::size_t t = 0; t < traces.count(); ++t) {
    // Plume deviations ride on a ~20 C ambient, as a real temperature
    // field would (keeps sensor noise small relative to the signal).
    sf::SpatialField truth = traces.at(t);
    truth += sf::SpatialField(truth.width(), truth.height(), 20.0);
    sh::NanoCloudConfig cfg;
    cfg.coverage = 1.0;
    sh::NanoCloud nc(truth, cfg, rng);
    const auto res = nc.gather(sampler.budget(), rng);
    budget_sum += sampler.budget();
    sampler.observe(res.nrmse);
    if (t >= traces.count() / 2) {  // after the controller settles
      settled_err += res.nrmse;
      ++settled_rounds;
    }
  }
  EXPECT_LT(settled_err / static_cast<double>(settled_rounds), 0.15);
  EXPECT_LT(budget_sum, 80u * traces.count());  // never pinned at max
}

TEST(EndToEnd, MultiRadioPicksCheapestLinkPerTier) {
  // The tiers of Fig. 1 map onto radios: node->broker inside a NanoCloud
  // (10 m), broker->LC head across the site (80 m), LC head->public
  // cloud (5 km).  The selector must pick BT / WiFi / GSM respectively.
  const auto radios = sd::standard_phone_radios();
  sd::MessageRequirements node_to_broker{64, 8.0, 1.0, 0.5};
  sd::MessageRequirements broker_to_head{512, 80.0, 1.0, 0.5};
  sd::MessageRequirements head_to_cloud{2048, 5000.0, 5.0, 0.5};
  EXPECT_EQ(sd::choose_radio(radios, node_to_broker)->kind,
            ss::RadioKind::kBluetooth);
  EXPECT_EQ(sd::choose_radio(radios, broker_to_head)->kind,
            ss::RadioKind::kWiFi);
  EXPECT_EQ(sd::choose_radio(radios, head_to_cloud)->kind,
            ss::RadioKind::kGsm);
}
