// Execution-engine tests: the ThreadPool contract (start/stop, results,
// exception propagation), the SolverRegistry round-trip for every
// registered name, cooperative cancellation, and the headline invariant
// of DESIGN.md §9 — a seeded, faulted, multi-zone campaign produces a
// byte-identical deterministic RunReport whether it runs on 1 worker or
// N.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <latch>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cs/chs.h"
#include "cs/measurement.h"
#include "cs/solver.h"
#include "exec/campaign_runner.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "field/generators.h"
#include "field/zones.h"
#include "hierarchy/localcloud.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace sc = sensedroid::cs;
namespace se = sensedroid::exec;
namespace sf = sensedroid::field;
namespace sfl = sensedroid::fault;
namespace sh = sensedroid::hierarchy;
namespace sl = sensedroid::linalg;
namespace so = sensedroid::obs;

namespace {

using sl::Matrix;
using sl::Vector;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsTasksAndReturnsResults) {
  se::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  long long expect = 0;
  for (int i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  se::ThreadPool pool;  // 0 = hardware_concurrency, clamped to >= 1
  EXPECT_GE(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, PropagatesTaskExceptionsAndSurvivesThem) {
  se::ThreadPool pool(2);
  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("task boom");
  });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 41 + 1; }).get(), 42);
}

TEST(ThreadPool, ShutdownDrainsQueuedWorkThenRejectsNewWork) {
  std::atomic<int> ran{0};
  se::ThreadPool pool(1);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  pool.shutdown();
  EXPECT_EQ(ran.load(), 16);  // queued tasks finished, not dropped
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(pool.submit([] { return 0; }), std::runtime_error);
  pool.shutdown();  // idempotent
}

// ---------------------------------------------------------- SolverRegistry

// K-sparse toy problem every solver must nail: identity dictionary, so
// the solution IS the measurement.
struct ToyProblem {
  Matrix a = Matrix::identity(6);
  Vector y = {0.0, 2.0, 0.0, -3.0, 0.0, 0.0};
};

TEST(SolverRegistry, EveryBuiltinNameRoundTripsAndSolves) {
  auto& reg = sc::SolverRegistry::global();
  const std::vector<std::string> names = reg.names();
  // All builtins plus the two aliases must be present.
  for (const char* expect :
       {"omp", "cosamp", "iht", "niht", "bp", "basis_pursuit", "ols", "gls",
        "ridge"}) {
    EXPECT_TRUE(reg.contains(expect)) << expect;
  }

  const ToyProblem p;
  sc::SolveContext ctx;
  ctx.sparsity = 2;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const auto solver = reg.create(name);
    ASSERT_NE(solver, nullptr);
    // Aliases resolve to their canonical implementation.
    if (name == "niht") {
      EXPECT_EQ(solver->name(), "iht");
    } else if (name == "basis_pursuit") {
      EXPECT_EQ(solver->name(), "bp");
    } else {
      EXPECT_EQ(solver->name(), name);
    }
    const sc::SparseSolution sol = solver->solve(p.a, p.y, ctx);
    ASSERT_EQ(sol.coefficients.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(sol.coefficients[i], p.y[i], 1e-6);
    }
    EXPECT_LT(sol.residual_norm, 1e-6);
  }
}

TEST(SolverRegistry, UnknownNameThrowsWithInventory) {
  auto& reg = sc::SolverRegistry::global();
  try {
    reg.create("no_such_solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must list what IS available, or typos cost minutes.
    EXPECT_NE(std::string(e.what()).find("omp"), std::string::npos);
  }
}

namespace {
class FixedSolver final : public sc::SparseSolver {
 public:
  std::string_view name() const noexcept override { return "fixed"; }
  sc::SparseSolution solve(const Matrix& a, std::span<const double>,
                           const sc::SolveContext&) const override {
    sc::SparseSolution s;
    s.coefficients.assign(a.cols(), 1.5);
    return s;
  }
};
}  // namespace

TEST(SolverRegistry, AcceptsCustomRegistrations) {
  sc::SolverRegistry reg;
  EXPECT_FALSE(reg.contains("fixed"));
  reg.register_solver("fixed", [] { return std::make_unique<FixedSolver>(); });
  EXPECT_TRUE(reg.contains("fixed"));
  const ToyProblem p;
  const auto sol = reg.create("fixed")->solve(p.a, p.y, {});
  EXPECT_EQ(sol.coefficients[0], 1.5);
  EXPECT_THROW(reg.register_solver("", [] {
    return std::make_unique<FixedSolver>();
  }),
               std::invalid_argument);
}

TEST(SolverRegistry, SharedInstanceIsReentrantAcrossWorkers) {
  // One solver instance, many concurrent solves: the statelessness
  // contract of SparseSolver.  The TSan twin of this binary turns any
  // hidden shared mutable state into a hard failure.
  const auto solver = sc::SolverRegistry::global().create("omp");
  const ToyProblem p;
  sc::SolveContext ctx;
  ctx.sparsity = 2;
  se::ThreadPool pool(4);
  std::vector<std::future<sc::SparseSolution>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(
        pool.submit([&] { return solver->solve(p.a, p.y, ctx); }));
  }
  for (auto& f : futures) {
    const auto sol = f.get();
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(sol.coefficients[i], p.y[i]);  // bit-identical every time
    }
  }
}

// ------------------------------------------------------------ cancellation

TEST(CancelToken, PreCancelledTokenStopsSolversImmediately) {
  sc::CancelToken tok;
  tok.cancel();
  const ToyProblem p;

  sc::OmpOptions omp;
  omp.cancel = &tok;
  const auto sol = sc::omp_solve(p.a, p.y, omp);
  EXPECT_EQ(sol.iterations, 0u);
  EXPECT_TRUE(sol.support.empty());

  sc::SolveContext ctx;
  ctx.sparsity = 2;
  ctx.cancel = &tok;
  const auto bp = sc::SolverRegistry::global().create("bp")->solve(
      p.a, p.y, ctx);
  EXPECT_TRUE(bp.support.empty());  // entry check: LP never ran

  // The iterative greedy solvers poll before their first sweep: empty
  // support, no iterations, and the zero solution's residual ||y||.
  for (const char* name : {"cosamp", "iht"}) {
    SCOPED_TRACE(name);
    const auto greedy =
        sc::SolverRegistry::global().create(name)->solve(p.a, p.y, ctx);
    EXPECT_TRUE(greedy.support.empty());
    EXPECT_EQ(greedy.iterations, 0u);
    EXPECT_DOUBLE_EQ(greedy.residual_norm, std::sqrt(13.0));
  }

  tok.reset();
  EXPECT_FALSE(tok.cancelled());
  const auto sol2 = sc::omp_solve(p.a, p.y, omp);
  EXPECT_EQ(sol2.support.size(), 2u);
}

TEST(CancelToken, ChsReturnsPartialResultWhenCancelled) {
  sl::Rng rng(3);
  const std::size_t n = 32;
  const Matrix basis = sl::dct_basis(n);
  Vector alpha(n, 0.0);
  alpha[1] = 4.0;
  alpha[5] = -2.0;
  const Vector x = basis * alpha;
  auto plan = sc::MeasurementPlan::random(n, 16, rng);
  const auto meas = sc::measure_exact(x, std::move(plan));

  sc::CancelToken tok;
  tok.cancel();
  sc::ChsOptions opts;
  opts.cancel = &tok;
  const auto res = sc::chs_reconstruct(basis, meas, opts);
  EXPECT_EQ(res.iterations, 0u);  // cancelled before the first batch
  EXPECT_EQ(res.reconstruction.size(), n);
}

// ------------------------------------------------- deterministic campaigns

// One faulted 8-zone campaign (the PR-2 replay fixture's fault knobs on
// a LocalCloud), run through the parallel runner with `workers` threads.
// Returns the deterministic RunReport JSON plus the per-round regional
// results.
struct CampaignRun {
  std::string report_json;
  std::vector<double> nrmse;
  std::vector<std::size_t> measurements;
  sensedroid::middleware::GatherStats stats;
};

CampaignRun run_parallel_campaign(std::size_t workers,
                                  const std::string& refit_solver = "gls") {
  sfl::FaultPlan plan;
  plan.seed = 77;
  plan.link.p_good_to_bad = 0.1;
  plan.link.p_bad_to_good = 0.3;
  plan.link.loss_bad = 0.8;
  plan.churn.leave_prob = 0.2;
  plan.sensors.spike_prob = 0.05;
  sfl::FaultInjector inj(plan);

  sl::Rng field_rng(101);
  const auto truth = sf::random_plume_field(24, 24, 3, field_rng, 20.0);
  const sf::ZoneGrid grid(24, 24, 2, 4);  // 8 zones of 6x12

  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.injector = &inj;
  cfg.retry.max_attempts = 3;
  cfg.topup_rounds = 1;
  cfg.chs.mad_threshold = 5.0;
  cfg.chs.refit_solver = refit_solver;

  so::MetricsRegistry reg;
  so::attach_registry(&reg);

  sl::Rng rng(7);
  sh::LocalCloud cloud(truth, grid, cfg, rng);
  // workers == 0: no pool, every zone task runs inline on this thread.
  std::unique_ptr<se::ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<se::ThreadPool>(workers);
  se::ParallelCampaignRunner runner(cloud, pool.get());

  CampaignRun out;
  for (int round = 0; round < 3; ++round) {
    const auto res = runner.run_round_uniform(20, rng);
    out.nrmse.push_back(res.nrmse);
    out.measurements.push_back(res.total_measurements);
    out.stats += res.stats;
  }
  const auto report = so::RunReport::from_registry(
      reg, "exec-determinism", /*include_wall_clock=*/false);
  out.report_json = report.to_json();
  so::attach_registry(nullptr);
  return out;
}

TEST(ParallelCampaign, OneWorkerAndEightWorkersAreByteIdentical) {
  const CampaignRun serial = run_parallel_campaign(1);
  const CampaignRun parallel = run_parallel_campaign(8);

  // Headline invariant: the deterministic RunReport view — every
  // counter, gauge, and histogram except wall-clock timings — is
  // byte-for-byte the same string at any worker count.
  EXPECT_EQ(serial.report_json, parallel.report_json);

  ASSERT_EQ(serial.nrmse.size(), parallel.nrmse.size());
  for (std::size_t i = 0; i < serial.nrmse.size(); ++i) {
    EXPECT_EQ(serial.nrmse[i], parallel.nrmse[i]);  // bit-identical
    EXPECT_EQ(serial.measurements[i], parallel.measurements[i]);
  }
  EXPECT_EQ(serial.stats.commands_sent, parallel.stats.commands_sent);
  EXPECT_EQ(serial.stats.replies_received, parallel.stats.replies_received);
  EXPECT_EQ(serial.stats.radio_failures, parallel.stats.radio_failures);
  EXPECT_EQ(serial.stats.retries, parallel.stats.retries);
  EXPECT_EQ(serial.stats.broker_energy_j, parallel.stats.broker_energy_j);

  // And the campaign genuinely exercised the fault machinery — a quiet
  // fixture would make the invariant vacuous.
  EXPECT_GT(serial.stats.radio_failures, 0u);
  EXPECT_GT(serial.stats.retries, 0u);
}

// The pool-less runner is the sequential driver: the same fork, shard
// and merge code run inline, so it lands on the same bytes as 8 workers.
TEST(ParallelCampaign, NoPoolAndEightWorkersAreByteIdentical) {
  const CampaignRun inline_run = run_parallel_campaign(0);
  const CampaignRun parallel = run_parallel_campaign(8);
  EXPECT_EQ(inline_run.report_json, parallel.report_json);
  ASSERT_EQ(inline_run.nrmse.size(), parallel.nrmse.size());
  for (std::size_t i = 0; i < inline_run.nrmse.size(); ++i) {
    EXPECT_EQ(inline_run.nrmse[i], parallel.nrmse[i]);  // bit-identical
    EXPECT_EQ(inline_run.measurements[i], parallel.measurements[i]);
  }
  EXPECT_EQ(inline_run.stats.retries, parallel.stats.retries);
  EXPECT_GT(inline_run.stats.radio_failures, 0u);
}

// Same invariant with the LP refit: the revised simplex (warm-started
// through the CHS basis cache) sits inside every zone's reconstruction,
// so any pivot-order or warm-start nondeterminism would surface here as
// a diverging report or NRMSE.
TEST(ParallelCampaign, BpRefitStaysByteIdenticalAcrossWorkerCounts) {
  const CampaignRun serial = run_parallel_campaign(1, "bp");
  const CampaignRun parallel = run_parallel_campaign(8, "bp");
  EXPECT_EQ(serial.report_json, parallel.report_json);
  ASSERT_EQ(serial.nrmse.size(), parallel.nrmse.size());
  for (std::size_t i = 0; i < serial.nrmse.size(); ++i) {
    EXPECT_EQ(serial.nrmse[i], parallel.nrmse[i]);  // bit-identical
    EXPECT_EQ(serial.measurements[i], parallel.measurements[i]);
  }
}

TEST(ParallelCampaign, ReplaysBitIdenticallyAtTheSameWorkerCount) {
  const CampaignRun a = run_parallel_campaign(4);
  const CampaignRun b = run_parallel_campaign(4);
  EXPECT_EQ(a.report_json, b.report_json);
  ASSERT_EQ(a.nrmse.size(), b.nrmse.size());
  for (std::size_t i = 0; i < a.nrmse.size(); ++i) {
    EXPECT_EQ(a.nrmse[i], b.nrmse[i]);
  }
}

// Two LocalClouds built and run at once, each on its own pool.  Every
// 6x12 zone owns its basis as a Kronecker operator of two small DCT
// factors (the name predates per-zone bases: no basis matrix is shared
// across zones or clouds); the clouds share only the read-only truth
// field.  Race-free under the TSan twin, and every round matches a cloud
// run alone.
TEST(ParallelCampaign, ConcurrentCloudsShareBasesSafely) {
  sl::Rng field_rng(101);
  const auto truth = sf::random_plume_field(24, 24, 3, field_rng, 20.0);
  const sf::ZoneGrid grid(24, 24, 2, 4);  // 8 zones of 6x12
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;

  std::latch start(2);
  const auto run = [&](bool concurrent) {
    if (concurrent) start.arrive_and_wait();
    sl::Rng rng(7);
    sh::LocalCloud cloud(truth, grid, cfg, rng);
    se::ThreadPool pool(8);
    se::ParallelCampaignRunner runner(cloud, pool);
    std::vector<double> nrmse;
    for (int round = 0; round < 3; ++round) {
      nrmse.push_back(runner.run_round_uniform(20, rng).nrmse);
    }
    return nrmse;
  };
  const std::vector<double> alone = run(false);
  std::vector<double> a;
  std::vector<double> b;
  std::thread ta([&] { a = run(true); });
  std::thread tb([&] { b = run(true); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, alone);  // bit-identical
  EXPECT_EQ(b, alone);
}

TEST(ParallelCampaign, ValidatesZoneDecisions) {
  sl::Rng field_rng(5);
  const auto truth = sf::random_plume_field(12, 12, 2, field_rng, 10.0);
  const sf::ZoneGrid grid(12, 12, 2, 2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sl::Rng rng(9);
  sh::LocalCloud cloud(truth, grid, cfg, rng);
  se::ThreadPool pool(2);
  se::ParallelCampaignRunner runner(cloud, pool);

  std::vector<sh::ZoneDecision> wrong_count(3);
  EXPECT_THROW(runner.run_round(wrong_count, rng), std::invalid_argument);
  std::vector<sh::ZoneDecision> dup(4);
  for (std::size_t i = 0; i < 4; ++i) dup[i].zone_id = 0;  // duplicate ids
  EXPECT_THROW(runner.run_round(dup, rng), std::invalid_argument);
}

}  // namespace
