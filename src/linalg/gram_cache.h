// Gram-cache counters, kept as a zero stub: no solver memoizes A^T A
// any more, so both counters always read 0.
#pragma once

#include <cstdint>

namespace sensedroid::linalg {

// Stays until a benchmark change drops the linalg.gram_* series.
struct GramCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
inline GramCacheStats gram_cache_stats() noexcept { return {}; }

}  // namespace sensedroid::linalg
