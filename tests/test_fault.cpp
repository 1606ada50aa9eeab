// Fault-injection tests: the deterministic fault plan must reproduce
// bit-identically, the resilience machinery (retry, top-up, failover,
// MAD screening) must measurably recover what the faults take away, and
// a benign injector must be behaviorally invisible.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "exec/campaign_runner.h"
#include "fault/fault.h"
#include "fault/retry.h"
#include "field/generators.h"
#include "hierarchy/localcloud.h"
#include "hierarchy/nanocloud.h"
#include "middleware/broker.h"
#include "middleware/node.h"
#include "sensing/sensor.h"

namespace se = sensedroid::exec;
namespace sfl = sensedroid::fault;
namespace sh = sensedroid::hierarchy;
namespace sf = sensedroid::field;
namespace sl = sensedroid::linalg;
namespace mw = sensedroid::middleware;
namespace sn = sensedroid::sensing;
namespace ss = sensedroid::sim;

namespace {

sf::SpatialField zone(std::uint64_t seed, std::size_t side = 12) {
  sl::Rng rng(seed);
  return sf::random_plume_field(side, side, 2, rng, 20.0);
}

void expect_stats_eq(const mw::GatherStats& a, const mw::GatherStats& b) {
  EXPECT_EQ(a.commands_sent, b.commands_sent);
  EXPECT_EQ(a.replies_received, b.replies_received);
  EXPECT_EQ(a.radio_failures, b.radio_failures);
  EXPECT_EQ(a.node_refusals, b.node_refusals);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_recovered, b.retry_recovered);
  EXPECT_EQ(a.deadline_skips, b.deadline_skips);
  EXPECT_EQ(a.battery_skips, b.battery_skips);
  EXPECT_EQ(a.topup_requests, b.topup_requests);
  EXPECT_EQ(a.topup_replies, b.topup_replies);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.broker_energy_j, b.broker_energy_j);
}

// One three-round campaign against a fixed fleet; everything seeded.
struct CampaignOutcome {
  mw::GatherStats stats;
  std::vector<double> nrmse;
  std::size_t m_used = 0;
};

CampaignOutcome run_campaign(sh::NanoCloudConfig cfg,
                             sfl::FaultInjector* inj) {
  auto truth = zone(101);
  sl::Rng rng(7);
  cfg.coverage = 1.0;
  cfg.injector = inj;
  sh::NanoCloud nc(truth, cfg, rng);
  CampaignOutcome out;
  for (int round = 0; round < 3; ++round) {
    if (inj != nullptr) inj->begin_round();
    const auto res = nc.gather(60, rng);
    out.stats += res.stats;
    out.nrmse.push_back(res.nrmse);
    out.m_used += res.m_used;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- plans

TEST(FaultPlan, ValidatesProbabilitiesAndWindows) {
  sfl::FaultPlan plan;
  plan.link.p_good_to_bad = 1.5;
  EXPECT_THROW(sfl::FaultInjector{plan}, std::invalid_argument);
  plan.link.p_good_to_bad = 0.0;
  plan.sensors.stuck_fraction = 0.7;
  plan.sensors.drift_fraction = 0.7;  // sums past 1
  EXPECT_THROW(sfl::FaultInjector{plan}, std::invalid_argument);
  plan.sensors.drift_fraction = 0.0;
  plan.broker_crashes.push_back({0, 5, 2});  // inverted window
  EXPECT_THROW(sfl::FaultInjector{plan}, std::invalid_argument);
}

TEST(FaultPlan, GilbertElliottClosedForms) {
  sfl::GilbertElliott ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.20;
  ge.loss_bad = 0.9;
  ge.loss_good = 0.02;
  EXPECT_NEAR(ge.bad_occupancy(), 0.2, 1e-12);
  EXPECT_NEAR(ge.mean_loss(), 0.2 * 0.9 + 0.8 * 0.02, 1e-12);
}

TEST(FaultInjector, GilbertElliottMatchesStationaryLossAndIsBursty) {
  sfl::FaultPlan plan;
  plan.seed = 42;
  plan.link.p_good_to_bad = 0.05;
  plan.link.p_bad_to_good = 0.20;
  plan.link.loss_bad = 0.9;
  plan.link.loss_good = 0.02;
  sfl::FaultInjector inj(plan);

  const int kAttempts = 200000;
  int drops = 0, pairs = 0, drop_after_drop = 0;
  bool prev = false;
  for (int i = 0; i < kAttempts; ++i) {
    const bool d = inj.link_attempt_drops();
    if (d) ++drops;
    if (i > 0) {
      ++pairs;
      if (prev && d) ++drop_after_drop;
    }
    prev = d;
  }
  const double rate = static_cast<double>(drops) / kAttempts;
  EXPECT_NEAR(rate, plan.link.mean_loss(), 0.02);
  // Burstiness: a drop is far more likely right after a drop than
  // unconditionally — the signature that separates GE from i.i.d. loss.
  const double cond =
      static_cast<double>(drop_after_drop) / std::max(1, drops);
  EXPECT_GT(cond, 2.0 * rate);
  EXPECT_EQ(inj.tally().link_drops, static_cast<std::size_t>(drops));
  EXPECT_GT(inj.tally().link_bursts, 0u);
}

TEST(FaultInjector, ChurnPresenceIsStableWithinARoundAndOrderIndependent) {
  sfl::FaultPlan plan;
  plan.seed = 9;
  plan.churn.leave_prob = 0.4;
  plan.churn.rejoin_prob = 0.3;
  sfl::FaultInjector a(plan);
  sfl::FaultInjector b(plan);

  for (int round = 1; round <= 20; ++round) {
    a.begin_round();
    b.begin_round();
    // a queries ascending, b descending and repeatedly: presence per
    // (node, round) must agree regardless.
    std::vector<bool> pa, pb;
    for (std::uint32_t n = 1; n <= 8; ++n) pa.push_back(a.node_present(n));
    for (std::uint32_t n = 8; n >= 1; --n) {
      const bool first = b.node_present(n);
      EXPECT_EQ(first, b.node_present(n));  // stable within the round
      pb.insert(pb.begin(), first);
    }
    EXPECT_EQ(pa, pb);
  }
  EXPECT_GT(a.tally().churn_leaves + a.tally().churn_rejoins, 0u);
}

TEST(FaultInjector, StuckSensorFreezesAndDriftAccumulates) {
  sfl::FaultPlan plan;
  plan.sensors.stuck_fraction = 1.0;
  sfl::FaultInjector stuck_inj(plan);
  sn::SimulatedSensor stuck(sn::SensorKind::kTemperature,
                            sn::QualityTier::kFlagship,
                            [](std::size_t i) { return 20.0 + i; }, 5);
  stuck.set_read_hook(stuck_inj.sensor_hook(1, stuck.noise_sigma()));
  const double first = stuck.read(0);
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(stuck.read(i), first);  // frozen at first read
  }
  EXPECT_EQ(stuck_inj.tally().stuck_nodes, 1u);

  sfl::FaultPlan dplan;
  dplan.sensors.drift_fraction = 1.0;
  dplan.sensors.drift_per_read = 0.5;
  sfl::FaultInjector drift_inj(dplan);
  sn::SimulatedSensor drifty(sn::SensorKind::kTemperature,
                             sn::QualityTier::kFlagship,
                             [](std::size_t) { return 20.0; }, 6);
  drifty.set_read_hook(drift_inj.sensor_hook(2, drifty.noise_sigma()));
  const double d0 = drifty.read(0);
  double d9 = 0.0;
  for (std::size_t i = 1; i < 10; ++i) d9 = drifty.read(i);
  // 9 extra reads at +0.5 bias each dwarf the flagship noise.
  EXPECT_GT(d9 - d0, 3.0);
  EXPECT_EQ(drift_inj.tally().drift_nodes, 1u);
}

// ----------------------------------------------------- retry policy unit

TEST(RetryPolicy, ValidatesAndBoundsBackoff) {
  sfl::RetryPolicy bad;
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.max_backoff_s = 0.001;  // below base
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = {};
  bad.min_retry_soc = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  sfl::RetryPolicy p;
  p.max_attempts = 4;
  p.base_backoff_s = 0.01;
  p.max_backoff_s = 0.5;
  sl::Rng rng(3);
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    prev = p.next_backoff_s(prev, rng);
    EXPECT_GE(prev, p.base_backoff_s);
    EXPECT_LE(prev, p.max_backoff_s);
  }
}

TEST(RetryPolicy, CapBindsOnceBackoffReachesThirdOfMax) {
  // Decorrelated jitter draws from [base, 3*prev]; once prev >= max/3
  // the ceiling binds, so draws must clamp to max (and the clamp must
  // actually be reachable, not just an upper bound that never fires).
  sfl::RetryPolicy p;
  p.max_attempts = 4;
  p.base_backoff_s = 0.1;
  p.max_backoff_s = 0.3;
  sl::Rng rng(11);

  // prev exactly max/3: hi == max, so the cap is attainable but no draw
  // can exceed it.
  for (int i = 0; i < 200; ++i) {
    const double b = p.next_backoff_s(p.max_backoff_s / 3.0, rng);
    EXPECT_GE(b, p.base_backoff_s);
    EXPECT_LE(b, p.max_backoff_s);
  }
  // prev beyond max/3: the raw jitter range [base, 3*prev] extends past
  // max, so the clamp must fire — saturation at exactly max happens
  // with high probability per draw and certainly within 200.
  bool saturated = false;
  for (int i = 0; i < 200; ++i) {
    const double b = p.next_backoff_s(p.max_backoff_s, rng);
    EXPECT_LE(b, p.max_backoff_s);
    if (b == p.max_backoff_s) saturated = true;
  }
  EXPECT_TRUE(saturated);
}

TEST(RetryPolicy, NextBackoffDrawsExactlyOneUniform) {
  // Replay determinism counts Rng draws: a backoff that consumed two
  // draws (or zero, via some clamping shortcut) would shift every later
  // fault decision in the round.  Walk a twin stream by one raw uniform
  // and demand identical generator state.
  sfl::RetryPolicy p;
  sl::Rng a(99), b(99);
  (void)p.next_backoff_s(0.0, a);
  (void)b.uniform(0.0, 1.0);
  EXPECT_EQ(a.state().s, b.state().s);

  (void)p.next_backoff_s(10.0, a);  // clamp path: still one draw
  (void)b.uniform(0.0, 1.0);
  EXPECT_EQ(a.state().s, b.state().s);
}

TEST(RetryPolicy, ValidateRejectsEachBadFieldSeparately) {
  const auto expect_bad = [](auto&& mutate) {
    sfl::RetryPolicy p;
    p.max_attempts = 3;
    mutate(p);
    EXPECT_THROW(p.validate(), std::invalid_argument);
  };
  expect_bad([](sfl::RetryPolicy& p) { p.max_attempts = 0; });
  expect_bad([](sfl::RetryPolicy& p) { p.base_backoff_s = -0.01; });
  expect_bad([](sfl::RetryPolicy& p) {
    p.max_backoff_s = p.base_backoff_s / 2.0;
  });
  expect_bad([](sfl::RetryPolicy& p) { p.round_deadline_s = -1.0; });
  expect_bad([](sfl::RetryPolicy& p) { p.min_retry_soc = -0.1; });
  expect_bad([](sfl::RetryPolicy& p) { p.min_retry_soc = 1.1; });

  sfl::RetryPolicy ok;
  ok.max_attempts = 3;
  ok.min_retry_soc = 1.0;  // boundary values are legal
  ok.round_deadline_s = 0.0;
  EXPECT_NO_THROW(ok.validate());
}

TEST(Broker, RejectsInvalidRetryPolicy) {
  mw::Broker broker(1, {0.0, 0.0});
  sfl::RetryPolicy bad;
  bad.max_attempts = 0;
  EXPECT_THROW(broker.set_retry_policy(bad), std::invalid_argument);
}

TEST(Broker, DeadlineSkipsRemainingNodes) {
  mw::Broker broker(1, {0.0, 0.0});
  sfl::RetryPolicy p;
  p.round_deadline_s = 1e-6;  // shorter than one command transfer
  broker.set_retry_policy(p);
  std::vector<mw::MobileNode> nodes;
  for (mw::NodeId id = 1; id <= 5; ++id) {
    nodes.emplace_back(id, ss::Point{1.0, 1.0});
    nodes.back().add_sensor(sn::SimulatedSensor(
        sn::SensorKind::kTemperature, sn::QualityTier::kMidrange,
        [](std::size_t) { return 20.0; }));
  }
  std::vector<mw::MobileNode*> ptrs;
  for (auto& n : nodes) ptrs.push_back(&n);
  sl::Rng rng(4);
  mw::GatherStats stats;
  broker.collect(ptrs, sn::SensorKind::kTemperature, 0, rng, &stats);
  EXPECT_EQ(stats.commands_sent, 1u);   // only the first node fit
  EXPECT_EQ(stats.deadline_skips, 4u);
  EXPECT_GT(broker.last_round_virtual_s(), p.round_deadline_s);
}

TEST(Broker, BatterySkipWithholdsRetriesFromLowSocNodes) {
  // A permanently-bad GE channel forces every attempt to fail; the
  // energy-aware guard must then refuse to burn retries on half-drained
  // batteries.
  sfl::FaultPlan plan;
  plan.link.p_good_to_bad = 1.0;
  plan.link.p_bad_to_good = 0.0;
  plan.link.loss_bad = 1.0;
  sfl::FaultInjector inj(plan);

  mw::Broker broker(1, {0.0, 0.0});
  sfl::RetryPolicy p;
  p.max_attempts = 3;
  p.min_retry_soc = 0.5;
  broker.set_retry_policy(p);
  broker.set_fault_injector(&inj);

  std::vector<mw::MobileNode> nodes;
  for (mw::NodeId id = 1; id <= 4; ++id) {
    nodes.emplace_back(id, ss::Point{1.0, 1.0},
                       ss::LinkModel::of(ss::RadioKind::kWiFi),
                       ss::Battery(0.01));
    nodes.back().pay_tx(10000);  // drain to ~0.4 state of charge
    EXPECT_LT(nodes.back().battery().state_of_charge(), 0.5);
    nodes.back().add_sensor(sn::SimulatedSensor(
        sn::SensorKind::kTemperature, sn::QualityTier::kMidrange,
        [](std::size_t) { return 20.0; }));
  }
  std::vector<mw::MobileNode*> ptrs;
  for (auto& n : nodes) ptrs.push_back(&n);
  sl::Rng rng(5);
  mw::GatherStats stats;
  const auto readings =
      broker.collect(ptrs, sn::SensorKind::kTemperature, 0, rng, &stats);
  EXPECT_TRUE(readings.empty());
  EXPECT_EQ(stats.battery_skips, 4u);  // one withheld retry per node
  EXPECT_EQ(stats.retries, 0u);
}

// --------------------------------------------------- campaign invariants

TEST(FaultCampaign, BenignInjectorIsBitIdenticalToNoInjector) {
  sh::NanoCloudConfig cfg;
  const auto bare = run_campaign(cfg, nullptr);

  sfl::FaultInjector benign(sfl::FaultPlan{});  // every knob at zero
  const auto injected = run_campaign(cfg, &benign);

  expect_stats_eq(bare.stats, injected.stats);
  ASSERT_EQ(bare.nrmse.size(), injected.nrmse.size());
  for (std::size_t i = 0; i < bare.nrmse.size(); ++i) {
    EXPECT_EQ(bare.nrmse[i], injected.nrmse[i]);  // bit-identical
  }
  EXPECT_EQ(benign.tally().total_injected(), 0u);
}

TEST(FaultCampaign, SameSeedAndPlanReplaysBitIdentically) {
  sfl::FaultPlan plan;
  plan.seed = 77;
  plan.link.p_good_to_bad = 0.1;
  plan.link.p_bad_to_good = 0.3;
  plan.link.loss_bad = 0.8;
  plan.churn.leave_prob = 0.2;
  plan.sensors.spike_prob = 0.05;
  sh::NanoCloudConfig cfg;
  cfg.retry.max_attempts = 3;
  cfg.topup_rounds = 1;
  cfg.chs.mad_threshold = 5.0;

  sfl::FaultInjector inj1(plan);
  const auto run1 = run_campaign(cfg, &inj1);
  sfl::FaultInjector inj2(plan);
  const auto run2 = run_campaign(cfg, &inj2);

  expect_stats_eq(run1.stats, run2.stats);
  ASSERT_EQ(run1.nrmse.size(), run2.nrmse.size());
  for (std::size_t i = 0; i < run1.nrmse.size(); ++i) {
    EXPECT_EQ(run1.nrmse[i], run2.nrmse[i]);
  }
  EXPECT_EQ(inj1.tally().total_injected(), inj2.tally().total_injected());
  EXPECT_GT(inj1.tally().total_injected(), 0u);
}

TEST(FaultCampaign, ChurnShrinksRepliesWithoutCrashing) {
  sfl::FaultPlan plan;
  plan.churn.leave_prob = 0.5;
  plan.churn.rejoin_prob = 0.1;
  sfl::FaultInjector inj(plan);
  sh::NanoCloudConfig cfg;
  const auto out = run_campaign(cfg, &inj);

  EXPECT_GT(inj.tally().churn_absences, 0u);
  EXPECT_LT(out.stats.replies_received, out.stats.commands_sent);
  EXPECT_GT(out.m_used, 0u);  // survivors still produce a field
}

TEST(FaultCampaign, RetryRecoversRepliesUnderBurstyLoss) {
  sfl::FaultPlan plan;
  plan.seed = 13;
  plan.link.p_good_to_bad = 0.15;
  plan.link.p_bad_to_good = 0.25;
  plan.link.loss_bad = 0.9;
  plan.link.loss_good = 0.02;

  sh::NanoCloudConfig one_shot;
  sfl::FaultInjector inj_a(plan);
  const auto no_retry = run_campaign(one_shot, &inj_a);

  sh::NanoCloudConfig with_retry;
  with_retry.retry.max_attempts = 4;
  sfl::FaultInjector inj_b(plan);
  const auto retry = run_campaign(with_retry, &inj_b);

  EXPECT_GT(retry.stats.retries, 0u);
  EXPECT_GT(retry.stats.retry_recovered, 0u);
  EXPECT_GT(retry.stats.replies_received, no_retry.stats.replies_received);
}

TEST(FaultCampaign, TopUpRefillsTheMeasurementBudget) {
  sfl::FaultPlan plan;
  plan.seed = 21;
  plan.link.p_good_to_bad = 0.15;
  plan.link.p_bad_to_good = 0.25;
  plan.link.loss_bad = 0.9;

  sh::NanoCloudConfig plain;
  sfl::FaultInjector inj_a(plan);
  const auto without = run_campaign(plain, &inj_a);

  sh::NanoCloudConfig topped;
  topped.topup_rounds = 2;
  sfl::FaultInjector inj_b(plan);
  const auto with = run_campaign(topped, &inj_b);

  EXPECT_GT(with.stats.topup_requests, 0u);
  EXPECT_GT(with.stats.topup_replies, 0u);
  EXPECT_GT(with.m_used, without.m_used);
}

TEST(FaultCampaign, MadScreeningRejectsSpikesAndFlagsDegraded) {
  sfl::FaultPlan plan;
  plan.seed = 31;
  plan.sensors.spike_prob = 0.15;
  plan.sensors.spike_sigmas = 60.0;

  auto truth = zone(202);
  double nrmse_raw = 0.0, nrmse_screened = 0.0;
  std::size_t rejected = 0;
  bool degraded = false;
  for (int arm = 0; arm < 2; ++arm) {
    sl::Rng rng(11);
    sfl::FaultInjector inj(plan);
    sh::NanoCloudConfig cfg;
    cfg.coverage = 1.0;
    cfg.injector = &inj;
    if (arm == 1) cfg.chs.mad_threshold = 5.0;
    sh::NanoCloud nc(truth, cfg, rng);
    inj.begin_round();
    const auto res = nc.gather(80, rng);
    if (arm == 0) {
      nrmse_raw = res.nrmse;
      EXPECT_EQ(res.outliers_rejected, 0u);
    } else {
      nrmse_screened = res.nrmse;
      rejected = res.outliers_rejected;
      degraded = res.degraded;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_TRUE(degraded);
  EXPECT_LT(nrmse_screened, nrmse_raw);  // screening pays for itself
}

TEST(FaultCampaign, BrokerCrashFailsOverToAPromotedMember) {
  sfl::FaultPlan plan;
  plan.broker_crashes.push_back({/*zone=*/0, /*from=*/1, /*to=*/2});
  sfl::FaultInjector inj(plan);

  auto truth = zone(303);
  sl::Rng rng(17);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = &inj;
  sh::NanoCloud nc(truth, cfg, rng);

  inj.begin_round();  // round 1: inside the window
  const auto crashed = nc.gather(40, rng);
  EXPECT_TRUE(crashed.failed_over);
  EXPECT_TRUE(crashed.degraded);
  EXPECT_GT(crashed.m_used, 0u);  // the stand-in still gathered
  EXPECT_TRUE(std::isfinite(crashed.nrmse));

  inj.begin_round();  // round 2: still down
  EXPECT_TRUE(nc.gather(40, rng).failed_over);

  inj.begin_round();  // round 3: broker is back
  const auto healthy = nc.gather(40, rng);
  EXPECT_FALSE(healthy.failed_over);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_EQ(inj.tally().crashed_broker_rounds, 2u);
}

TEST(FaultCampaign, FailoverWithNoWillingSurvivorYieldsEmptyRound) {
  sfl::FaultPlan plan;
  plan.broker_crashes.push_back({0, 1, 1});
  sfl::FaultInjector inj(plan);

  auto truth = zone(404);
  sl::Rng rng(19);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.opt_out_fraction = 1.0;  // nobody volunteers for promotion
  cfg.injector = &inj;
  sh::NanoCloud nc(truth, cfg, rng);

  inj.begin_round();
  const auto res = nc.gather(40, rng);
  EXPECT_EQ(res.m_used, 0u);
  EXPECT_FALSE(res.failed_over);  // no stand-in existed
  EXPECT_DOUBLE_EQ(res.reconstruction.max(), 0.0);  // zero field, not junk
}

TEST(FaultCampaign, BatteryPlanStarvesTheFleetLikeTheAdHocScenario) {
  // Port of FailureInjection.BatteryDeathMidCampaignShrinksReplies onto
  // the injector: the plan's capacity override — not a doctored config —
  // sizes batteries for ~10 reading cycles.
  sfl::FaultPlan plan;
  plan.battery.capacity_override_j = 10 * (0.0002 + 5e-5);
  sfl::FaultInjector inj(plan);

  auto truth = zone(505, 10);
  sl::Rng rng(2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.battery_capacity_j = 36000.0;  // the override must win over this
  cfg.injector = &inj;
  sh::NanoCloud nc(truth, cfg, rng);

  std::size_t last_used = 100;
  bool shrank = false;
  for (int round = 0; round < 40; ++round) {
    inj.begin_round();
    const auto res = nc.gather(40, rng);
    EXPECT_LE(res.m_used, res.m_requested);
    if (res.m_used < last_used) shrank = true;
    last_used = res.m_used;
  }
  EXPECT_TRUE(shrank);
  EXPECT_LT(last_used, 40u);
}

TEST(FaultCampaign, LocalCloudRoutesCrashWindowsByZoneAndAggregates) {
  sfl::FaultPlan plan;
  plan.broker_crashes.push_back({/*zone=*/2, /*from=*/1, /*to=*/1});
  sfl::FaultInjector inj(plan);

  sl::Rng rng(23);
  auto f = zone(606, 16);
  sf::ZoneGrid grid(16, 16, 2, 2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = &inj;
  sh::LocalCloud lc(f, grid, cfg, rng);

  // The round advances the injector itself: round 1 crashes zone 2 only.
  se::ParallelCampaignRunner runner(lc);
  const auto r1 = runner.run_round_uniform(30, rng);
  EXPECT_EQ(r1.failovers, 1u);
  EXPECT_EQ(r1.degraded_zones, 1u);
  const auto r2 = runner.run_round_uniform(30, rng);
  EXPECT_EQ(r2.failovers, 0u);
  EXPECT_TRUE(std::isfinite(r1.nrmse));
}
