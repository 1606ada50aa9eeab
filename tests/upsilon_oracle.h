// Test-only Upsilon oracle: the original interpolation loops, which scan
// all M samples for every grid point.  cs::UpsilonStencil precomputes
// the same neighbors and weights once per sample layout; the stencil is
// checked against these loops for bit-equality.
#pragma once

#include <cstddef>
#include <span>

#include "cs/chs.h"

namespace sensedroid::cs::oracle {

/// 1-D Upsilon, as cs::interpolate_to_grid documents it.
Vector interpolate_to_grid(std::span<const double> values,
                           std::span<const std::size_t> locations,
                           std::size_t n, Interpolation kind);

/// 2-D Upsilon, as cs::interpolate_to_grid_2d documents it.
Vector interpolate_to_grid_2d(std::span<const double> values,
                              std::span<const std::size_t> locations,
                              std::size_t n, std::size_t height,
                              Interpolation kind);

}  // namespace sensedroid::cs::oracle
