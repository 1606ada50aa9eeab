// Upsilon stencil vs the original interpolation loops (upsilon_oracle.h).
// chs_reconstruct builds the stencil once per measurement and applies it
// every Fig. 6 iteration; reconstructions stay bit-identical only if each
// application equals the O(N M) loops bit for bit, so every check here
// compares IEEE bit patterns, not values within a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cs/chs.h"
#include "cs/measurement.h"
#include "linalg/basis.h"
#include "linalg/random.h"
#include "upsilon_oracle.h"

namespace sc = sensedroid::cs;
namespace sl = sensedroid::linalg;

namespace {

constexpr sc::Interpolation kAllKinds[] = {sc::Interpolation::kZeroFill,
                                           sc::Interpolation::kNearest,
                                           sc::Interpolation::kLinear};

// Index of the first grid point whose bit pattern differs, or -1.
long first_bit_mismatch(const sl::Vector& got, const sl::Vector& want) {
  if (got.size() != want.size()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

std::vector<std::size_t> random_locations(std::size_t n, std::size_t m,
                                          sl::Rng& rng) {
  auto loc = rng.sample_without_replacement(n, m);
  std::sort(loc.begin(), loc.end());
  return loc;
}

sl::Vector random_values(std::size_t m, sl::Rng& rng) {
  sl::Vector v(m);
  for (double& x : v) x = rng.gaussian(0.0, 3.0);
  return v;
}

// Both public entry points and a stencil built once and applied to
// several value vectors (the chs_reconstruct usage) against the oracle.
// height 0 = 1-D.
void expect_matches_oracle(const std::vector<std::size_t>& loc,
                           std::size_t n, std::size_t height,
                           sc::Interpolation kind, sl::Rng& rng) {
  const sc::UpsilonStencil stencil(loc, n, height, kind);
  for (int rep = 0; rep < 3; ++rep) {
    const sl::Vector v = random_values(loc.size(), rng);
    const sl::Vector want =
        height == 0
            ? sc::oracle::interpolate_to_grid(v, loc, n, kind)
            : sc::oracle::interpolate_to_grid_2d(v, loc, n, height, kind);
    const sl::Vector got =
        height == 0 ? sc::interpolate_to_grid(v, loc, n, kind)
                    : sc::interpolate_to_grid_2d(v, loc, n, height, kind);
    EXPECT_EQ(first_bit_mismatch(got, want), -1)
        << "n=" << n << " height=" << height << " m=" << loc.size()
        << " kind=" << static_cast<int>(kind);
    EXPECT_EQ(first_bit_mismatch(stencil.apply(v), want), -1)
        << "reused stencil, n=" << n << " height=" << height
        << " m=" << loc.size() << " kind=" << static_cast<int>(kind);
  }
}

}  // namespace

TEST(UpsilonStencil, Randomized1dMatchesOracleBitForBit) {
  sl::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(200);
    const std::size_t m = 1 + rng.uniform_index(std::min<std::size_t>(n, 40));
    const auto loc = random_locations(n, m, rng);
    for (const auto kind : kAllKinds) {
      expect_matches_oracle(loc, n, 0, kind, rng);
    }
  }
}

TEST(UpsilonStencil, Randomized2dMatchesOracleBitForBit) {
  sl::Rng rng(2025);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t h = 1 + rng.uniform_index(16);
    const std::size_t w = 1 + rng.uniform_index(16);  // h != w mostly
    const std::size_t n = h * w;
    const std::size_t m = 1 + rng.uniform_index(std::min<std::size_t>(n, 40));
    const auto loc = random_locations(n, m, rng);
    for (const auto kind : kAllKinds) {
      expect_matches_oracle(loc, n, h, kind, rng);
    }
  }
}

TEST(UpsilonStencil, FewerSamplesThanTheBlendNeighborhood) {
  sl::Rng rng(7);
  for (std::size_t m = 1; m < 4; ++m) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto loc = random_locations(35, m, rng);  // 5 x 7 field
      for (const auto kind : kAllKinds) {
        expect_matches_oracle(loc, 35, 5, kind, rng);
        expect_matches_oracle(loc, 35, 0, kind, rng);
      }
    }
  }
}

TEST(UpsilonStencil, EqualDistanceTiesResolveLikeTheOracle) {
  sl::Rng rng(8);
  // 9 x 9 field sampled on every other row and column: each unsampled
  // cell sits at equal distance from two or four samples.
  std::vector<std::size_t> lattice;
  for (std::size_t j = 0; j < 9; j += 2) {
    for (std::size_t i = 0; i < 9; i += 2) lattice.push_back(j * 9 + i);
  }
  // Four corners only: the center is equidistant from all of them.
  const std::vector<std::size_t> corners{0, 4, 20, 24};  // 5 x 5 field
  // 1-D: every odd point is midway between two samples.
  const std::vector<std::size_t> evens{0, 2, 4, 6, 8, 10};
  for (const auto kind : kAllKinds) {
    expect_matches_oracle(lattice, 81, 9, kind, rng);
    expect_matches_oracle(corners, 25, 5, kind, rng);
    expect_matches_oracle(evens, 12, 0, kind, rng);
  }
}

TEST(UpsilonStencil, GridPointOnASampleCopiesItExactly) {
  sl::Rng rng(9);
  const std::vector<std::size_t> loc{3, 10, 11, 26, 30};  // 4 x 8 field
  const sl::Vector v = random_values(loc.size(), rng);
  for (const auto kind : kAllKinds) {
    const auto out = sc::interpolate_to_grid_2d(v, loc, 32, 4, kind);
    for (std::size_t s = 0; s < loc.size(); ++s) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[loc[s]]),
                std::bit_cast<std::uint64_t>(v[s]));
    }
    expect_matches_oracle(loc, 32, 4, kind, rng);
    expect_matches_oracle(loc, 32, 8, kind, rng);  // same cells, 8 x 4
  }
}

TEST(UpsilonStencil, DegenerateShapesMatchOracle) {
  sl::Rng rng(10);
  const auto loc = random_locations(24, 6, rng);
  for (const auto kind : kAllKinds) {
    expect_matches_oracle(loc, 24, 1, kind, rng);   // one row
    expect_matches_oracle(loc, 24, 24, kind, rng);  // one column
  }
  // No samples: every kind reads zeros.
  const std::vector<std::size_t> none;
  for (const auto kind : kAllKinds) {
    expect_matches_oracle(none, 12, 0, kind, rng);
    expect_matches_oracle(none, 12, 3, kind, rng);
  }
}

TEST(UpsilonStencil, ValidatesShapes) {
  const std::vector<std::size_t> loc{0, 5};
  EXPECT_THROW(sc::UpsilonStencil(loc, 16, 3, sc::Interpolation::kLinear),
               std::invalid_argument);
  // Zero-fill ignores the height, as interpolate_to_grid_2d's fallback.
  EXPECT_NO_THROW(
      sc::UpsilonStencil(loc, 16, 3, sc::Interpolation::kZeroFill));
  const sc::UpsilonStencil st(loc, 16, 4, sc::Interpolation::kNearest);
  EXPECT_EQ(st.apply(sl::Vector{1.0, 2.0}).size(), 16u);
  const sl::Vector three{1.0, 2.0, 3.0};
  EXPECT_THROW(st.apply(three), std::invalid_argument);
}

// MAD screening hands the core a sub-measurement; the stencil must be
// built on the kept locations.  A screened solve therefore equals, bit
// for bit, an unscreened solve on the same readings with the spikes
// removed by hand — and the kept layout's Upsilon matches the oracle.
TEST(UpsilonStencil, MadScreenedSubMeasurementUsesItsOwnLocations) {
  const std::size_t w = 12, h = 10, n = w * h, m = 48;
  sl::Rng rng(11);
  sl::Vector field(n);
  for (std::size_t j = 0; j < w; ++j) {
    for (std::size_t i = 0; i < h; ++i) {
      field[j * h + i] = std::sin(0.3 * static_cast<double>(i)) +
                         std::cos(0.2 * static_cast<double>(j));
    }
  }
  const auto loc = random_locations(n, m, rng);
  sl::Vector values(m);
  for (std::size_t s = 0; s < m; ++s) values[s] = field[loc[s]];
  const std::vector<std::size_t> spikes{3, 17, 30};
  for (const std::size_t s : spikes) values[s] += 1000.0;

  std::vector<std::size_t> kept_loc;
  sl::Vector kept_val;
  for (std::size_t s = 0; s < m; ++s) {
    if (std::find(spikes.begin(), spikes.end(), s) != spikes.end()) continue;
    kept_loc.push_back(loc[s]);
    kept_val.push_back(values[s]);
  }

  const sl::Matrix basis = sl::dct2_basis(w, h);
  for (const auto kind :
       {sc::Interpolation::kNearest, sc::Interpolation::kLinear}) {
    sc::ChsOptions opts;
    opts.interpolation = kind;
    opts.grid_height = h;
    opts.max_support = 16;
    opts.mad_threshold = 5.0;
    const sc::Measurement full{sc::MeasurementPlan::from_indices(n, loc),
                               values, {}};
    const auto screened = sc::chs_reconstruct(basis, full, opts);
    ASSERT_TRUE(screened.degraded);
    ASSERT_EQ(screened.outliers_rejected, spikes.size());

    opts.mad_threshold = 0.0;
    const sc::Measurement by_hand{
        sc::MeasurementPlan::from_indices(n, kept_loc), kept_val, {}};
    const auto direct = sc::chs_reconstruct(basis, by_hand, opts);
    EXPECT_EQ(screened.support, direct.support);
    EXPECT_EQ(first_bit_mismatch(screened.reconstruction,
                                 direct.reconstruction),
              -1);
    EXPECT_GT(screened.iterations, 0u);

    sl::Rng vrng(12);
    expect_matches_oracle(kept_loc, n, h, kind, vrng);
  }
}
