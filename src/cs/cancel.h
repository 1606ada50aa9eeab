// Cooperative cancellation for solver loops.  Lives in its own header
// (below solver.h in the include graph) so every per-solver options
// struct can carry an optional token without pulling in the registry.
#pragma once

#include <atomic>

namespace sensedroid::cs {

/// Cooperative cancellation flag.  One writer (any thread) flips it; any
/// number of solver loops poll it between iterations and return their
/// current partial solution early.  Cancellation is best-effort: a
/// solver observes the token at iteration granularity (the simplex
/// polls once per pivot), never mid-factorization.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// True when `t` is set and has been cancelled — the one-line poll used
/// inside solver iteration loops (`if (poll_cancelled(opts.cancel)) break;`).
inline bool poll_cancelled(const CancelToken* t) noexcept {
  return t != nullptr && t->cancelled();
}

}  // namespace sensedroid::cs
