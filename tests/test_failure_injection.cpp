// Failure-injection tests: the middleware must degrade gracefully — not
// crash, not fabricate data — when batteries die mid-round, radios fail,
// users opt out, or coverage collapses.
#include <gtest/gtest.h>

#include <stdexcept>

#include "exec/campaign_runner.h"
#include "field/generators.h"
#include "hierarchy/localcloud.h"
#include "hierarchy/nanocloud.h"
#include "middleware/broker.h"
#include "middleware/node.h"

namespace se = sensedroid::exec;
namespace sh = sensedroid::hierarchy;
namespace sf = sensedroid::field;
namespace sl = sensedroid::linalg;
namespace mw = sensedroid::middleware;
namespace sn = sensedroid::sensing;
namespace ss = sensedroid::sim;

namespace {

sf::SpatialField zone(std::uint64_t seed) {
  sl::Rng rng(seed);
  return sf::random_plume_field(10, 10, 2, rng, 20.0);
}

}  // namespace

TEST(FailureInjection, BatteryDeathMidCampaignShrinksReplies) {
  // Batteries sized for only a few readings: repeated rounds must drain
  // the fleet and shrink m_used, never crash.
  auto truth = zone(1);
  sl::Rng rng(2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  // A temperature reading costs 0.0002 J; radio legs cost ~2e-5 J.
  // ~10 reading+reply cycles per phone.
  cfg.battery_capacity_j = 10 * (0.0002 + 5e-5);
  sh::NanoCloud nc(truth, cfg, rng);

  std::size_t last_used = 100;
  bool shrank = false;
  for (int round = 0; round < 40; ++round) {
    const auto res = nc.gather(40, rng);
    EXPECT_LE(res.m_used, res.m_requested);
    if (res.m_used < last_used) shrank = true;
    last_used = res.m_used;
  }
  EXPECT_TRUE(shrank);           // the fleet visibly decayed
  EXPECT_LT(last_used, 40u);     // and cannot field full rounds anymore
}

TEST(FailureInjection, TotalBatteryDepletionYieldsEmptyRound) {
  auto truth = zone(3);
  sl::Rng rng(4);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.battery_capacity_j = 1e-9;  // born dead
  sh::NanoCloud nc(truth, cfg, rng);
  const auto res = nc.gather(20, rng);
  EXPECT_EQ(res.m_used, 0u);
  // Zero-information rounds produce the zero field, not garbage.
  EXPECT_DOUBLE_EQ(res.reconstruction.max(), 0.0);
  EXPECT_GT(res.stats.node_refusals + res.stats.radio_failures, 0u);
}

TEST(FailureInjection, OptOutFractionReducesYieldGracefully) {
  auto truth = zone(5);
  double err_none = 0.0, err_heavy = 0.0;
  std::size_t used_none = 0, used_heavy = 0;
  for (int t = 0; t < 5; ++t) {
    sl::Rng rng(10 + t);
    sh::NanoCloudConfig cfg;
    cfg.coverage = 1.0;
    sh::NanoCloud open(truth, cfg, rng);
    const auto r1 = open.gather(50, rng);
    err_none += r1.nrmse;
    used_none += r1.m_used;

    sl::Rng rng2(10 + t);
    cfg.opt_out_fraction = 0.6;
    sh::NanoCloud private_crowd(truth, cfg, rng2);
    const auto r2 = private_crowd.gather(50, rng2);
    err_heavy += r2.nrmse;
    used_heavy += r2.m_used;
  }
  EXPECT_LT(used_heavy, used_none);   // fewer phones answer
  EXPECT_GE(err_heavy, err_none);     // accuracy pays for privacy
  EXPECT_LT(err_heavy / 5.0, 1.0);    // but reconstruction still works
}

TEST(FailureInjection, ValidatesNewConfigFields) {
  auto truth = zone(6);
  sl::Rng rng(7);
  sh::NanoCloudConfig cfg;
  cfg.opt_out_fraction = 1.5;
  EXPECT_THROW(sh::NanoCloud(truth, cfg, rng), std::invalid_argument);
  cfg.opt_out_fraction = 0.0;
  cfg.battery_capacity_j = -1.0;
  EXPECT_THROW(sh::NanoCloud(truth, cfg, rng), std::invalid_argument);
}

TEST(FailureInjection, BrokerSurvivesAllNodesOutOfRange) {
  mw::Broker broker(1, {0.0, 0.0});
  std::vector<mw::MobileNode> nodes;
  for (mw::NodeId id = 0; id < 5; ++id) {
    nodes.emplace_back(id, ss::Point{1e6, 1e6});  // unreachable
    nodes.back().add_sensor(sn::SimulatedSensor(
        sn::SensorKind::kTemperature, sn::QualityTier::kMidrange,
        [](std::size_t) { return 20.0; }));
  }
  std::vector<mw::MobileNode*> ptrs;
  for (auto& n : nodes) ptrs.push_back(&n);
  sl::Rng rng(8);
  mw::GatherStats stats;
  const auto readings =
      broker.collect(ptrs, sn::SensorKind::kTemperature, 0, rng, &stats);
  EXPECT_TRUE(readings.empty());
  EXPECT_EQ(stats.radio_failures, 5u);
  EXPECT_EQ(broker.store().size(), 0u);
}

TEST(FailureInjection, CollectToleratesNullNodePointers) {
  mw::Broker broker(1, {0.0, 0.0});
  std::vector<mw::MobileNode*> ptrs{nullptr, nullptr};
  sl::Rng rng(9);
  const auto readings =
      broker.collect(ptrs, sn::SensorKind::kTemperature, 0, rng);
  EXPECT_TRUE(readings.empty());
}

TEST(FailureInjection, LocalCloudSurvivesZoneWithLowCoverage) {
  // One zone ends up nearly empty of phones: the regional gather still
  // completes and reports a sane (if degraded) stitched field.
  sl::Rng rng(11);
  auto f = sf::random_plume_field(16, 16, 3, rng, 15.0);
  sf::ZoneGrid grid(16, 16, 2, 2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 0.15;  // sparse crowd everywhere
  sh::LocalCloud lc(f, grid, cfg, rng);
  const auto res = se::ParallelCampaignRunner(lc).run_round_uniform(30, rng);
  EXPECT_EQ(res.zone_nrmse.size(), 4u);
  for (double e : res.zone_nrmse) {
    EXPECT_TRUE(std::isfinite(e));
  }
  EXPECT_TRUE(std::isfinite(res.nrmse));
}

TEST(FailureInjection, DeadBatteryNodePaysNothingFurther) {
  mw::MobileNode node(1, {0.0, 0.0},
                      ss::LinkModel::of(ss::RadioKind::kWiFi),
                      ss::Battery(1e-7));
  node.add_sensor(sn::SimulatedSensor(
      sn::SensorKind::kGps, sn::QualityTier::kMidrange,
      [](std::size_t) { return 0.5; }));
  // GPS costs 0.35 J: the first measure() kills the battery (clamped),
  // every later one refuses.
  EXPECT_FALSE(node.measure(sn::SensorKind::kGps, 0).has_value());
  EXPECT_TRUE(node.battery().depleted());
  EXPECT_FALSE(node.measure(sn::SensorKind::kGps, 1).has_value());
}
