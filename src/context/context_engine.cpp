#include "context/context_engine.h"

#include <cmath>
#include <stdexcept>

#include "linalg/basis.h"
#include "linalg/vector_ops.h"

namespace sensedroid::context {

WindowFeatures extract_features(std::span<const double> window,
                                double rate_hz) {
  if (window.empty()) {
    throw std::invalid_argument("extract_features: empty window");
  }
  if (rate_hz <= 0.0) {
    throw std::invalid_argument("extract_features: rate must be positive");
  }
  WindowFeatures f;
  f.mean = linalg::mean(window);
  f.variance = linalg::variance(window);

  // Spectral features via the orthonormal DCT: atom k of an N-window at
  // rate fs corresponds to frequency k * fs / (2N).
  const std::size_t n = window.size();
  const auto& basis = linalg::dct_basis(n);
  const Vector alpha = basis.transpose_times(window);
  const double hz_per_bin = rate_hz / (2.0 * static_cast<double>(n));

  double best_mag = 0.0;
  for (std::size_t k = 1; k < n; ++k) {  // skip DC for dominant frequency
    const double freq = static_cast<double>(k) * hz_per_bin;
    const double e = alpha[k] * alpha[k];
    if (std::abs(alpha[k]) > best_mag) {
      best_mag = std::abs(alpha[k]);
      f.dominant_freq_hz = freq;
    }
    if (freq < 1.0) {
      f.band_energy_low += e;
    } else if (freq < 5.0) {
      f.band_energy_mid += e;
    } else {
      f.band_energy_high += e;
    }
  }

  std::size_t crossings = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const double a = window[i - 1] - f.mean;
    const double b = window[i] - f.mean;
    if ((a < 0.0 && b >= 0.0) || (a >= 0.0 && b < 0.0)) ++crossings;
  }
  f.zero_crossing_rate =
      static_cast<double>(crossings) / static_cast<double>(n);
  return f;
}

ContextEngine::ContextEngine(double rate_hz) : rate_hz_(rate_hz) {
  if (rate_hz <= 0.0) {
    throw std::invalid_argument("ContextEngine: rate must be positive");
  }
}

const linalg::Matrix& ContextEngine::basis_for(std::size_t n) {
  auto it = basis_cache_.find(n);
  if (it == basis_cache_.end()) {
    it = basis_cache_.emplace(n, linalg::dct_basis(n)).first;
  }
  return it->second;
}

ContextWindow ContextEngine::process(const sensing::SampleBatch& batch,
                                     double sensor_sigma) {
  ContextWindow out;
  out.sensing_energy_j = batch.energy_j;
  out.samples_used = batch.indices.size();

  if (batch.indices.size() == batch.window) {
    // Continuous acquisition: the batch is the window.
    out.reconstruction = batch.values;
  } else {
    const auto meas = batch.to_measurement(sensor_sigma);
    cs::ChsOptions opts;
    opts.refit_solver = sensor_sigma > 0.0 ? "gls" : "ols";
    const auto res = cs::chs_reconstruct(basis_for(batch.window), meas, opts);
    out.reconstruction = res.reconstruction;
  }
  out.features = extract_features(out.reconstruction, rate_hz_);
  return out;
}

}  // namespace sensedroid::context
