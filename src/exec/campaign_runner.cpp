#include "exec/campaign_runner.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "field/spatial_field.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::exec {

namespace {

// Shards are only worth paying for when there is a process registry to
// merge them into; detached runs skip the isolation machinery entirely.
bool observed() { return obs::registry() != nullptr; }

// One zone's health-input series (counters `hier.zone.rounds` /
// `degraded_rounds` / `failovers` / `radio_failures` / `retries` /
// `recovered` / `replies` / `requested` / `energy_j`, gauge
// `hier.zone.nrmse`), all labelled `{zone="<id>"}` — the inputs
// obs::HealthEngine scores.  No-op when detached.  Flag-like series
// (degraded/failovers/radio_failures/retries/recovered) only appear once
// nonzero, keeping un-faulted runs' metric set unchanged.
void emit_zone_series(std::uint32_t zone,
                      const hierarchy::GatherResult& res) noexcept {
  if (!obs::attached()) return;
  const obs::Labels l{{"zone", std::to_string(zone)}};
  obs::add_counter("hier.zone.rounds", l, 1.0);
  obs::add_counter("hier.zone.replies", l,
                   static_cast<double>(res.m_used));
  obs::add_counter("hier.zone.requested", l,
                   static_cast<double>(res.m_requested));
  obs::add_counter("hier.zone.energy_j", l,
                   res.node_energy_j + res.stats.broker_energy_j);
  obs::set_gauge("hier.zone.nrmse", l, res.nrmse);
  if (res.degraded) obs::add_counter("hier.zone.degraded_rounds", l, 1.0);
  if (res.failed_over) obs::add_counter("hier.zone.failovers", l, 1.0);
  if (res.stats.radio_failures > 0) {
    obs::add_counter("hier.zone.radio_failures", l,
                     static_cast<double>(res.stats.radio_failures));
  }
  if (res.stats.retries > 0) {
    obs::add_counter("hier.zone.retries", l,
                     static_cast<double>(res.stats.retries));
  }
  if (res.stats.retry_recovered > 0) {
    obs::add_counter("hier.zone.recovered", l,
                     static_cast<double>(res.stats.retry_recovered));
  }
  if (res.shed) obs::add_counter("hier.zone.shed", l, 1.0);
}

// Shed accounting for one refused zone (counters `fault.shed.rounds` +
// `fault.shed.breaker`/`fault.shed.budget`, plus a flight-recorder kShed
// event), emitted only when a guard actually refused the zone, so benign
// runs emit nothing new.
void emit_shed(std::uint32_t zone, fault::ZoneAdmission why) noexcept {
  const bool budget = why == fault::ZoneAdmission::kShedBudget;
  obs::fr_record(obs::FrEvent::kShed, zone, budget ? 1.0 : 0.0);
  if (!obs::attached()) return;
  obs::add_counter("fault.shed.rounds");
  obs::add_counter(budget ? "fault.shed.budget" : "fault.shed.breaker");
}

}  // namespace

hierarchy::RegionalResult ParallelCampaignRunner::run_round(
    const std::vector<hierarchy::ZoneDecision>& decisions,
    linalg::Rng& rng) {
  hierarchy::LocalCloud& cloud = *cloud_;
  const std::size_t z = cloud.zone_count();
  if (decisions.size() != z) {
    throw std::invalid_argument("run_round: decision count mismatch");
  }
  std::vector<std::size_t> budget(z, 0);
  std::vector<bool> seen(z, false);
  for (const auto& d : decisions) {
    if (d.zone_id >= z || seen[d.zone_id]) {
      throw std::invalid_argument("run_round: bad zone ids");
    }
    seen[d.zone_id] = true;
    budget[d.zone_id] = std::max<std::size_t>(d.measurements, 1);
  }

  obs::ScopedSpan span("exec.runner.round");

  // One regional round = one fault round, advanced on the driver thread
  // before any zone task exists (begin_round must not race in-round
  // queries — fault.h's one threading caveat).
  if (z > 0 && cloud.nanocloud(0).config().injector != nullptr) {
    cloud.nanocloud(0).config().injector->begin_round();
  }

  // Admission plan on the driver thread, before any zone runs — the
  // plan (and thus which zones run) never depends on worker count or
  // task scheduling.  With no guard (or a disabled one) it is empty.
  std::vector<fault::ZoneAdmission> plan;
  if (cloud.guard() != nullptr && cloud.guard()->enabled()) {
    plan = cloud.guard()->plan_round();
  }
  const auto admitted = [&plan](std::size_t id) {
    return plan.empty() || plan[id] == fault::ZoneAdmission::kRun ||
           plan[id] == fault::ZoneAdmission::kProbe;
  };

  // Rule 1 (seeding): fork per-zone streams sequentially in zone order.
  // The campaign Rng advances by exactly Z draws per round no matter how
  // the zones are later scheduled — including when a zone is shed (its
  // fork is simply never drawn from), so admission decisions cannot
  // shift any other zone's stream.
  std::vector<linalg::Rng> forks;
  forks.reserve(z);
  for (std::size_t id = 0; id < z; ++id) forks.push_back(rng.fork());

  struct ZoneOutcome {
    hierarchy::GatherResult result;
    std::unique_ptr<obs::MetricsRegistry> shard;
    std::unique_ptr<obs::TraceLog> trace_shard;
  };
  const bool shard_metrics = observed();
  const bool shard_traces = obs::trace() != nullptr;
  // The round span's id: shard merging re-parents each zone's spans
  // under it, so the merged tree nests zone work inside the round at any
  // worker count.
  const std::uint64_t round_span = obs::TraceContext::current().parent;

  const auto zone_task = [this, shard_metrics, shard_traces, &forks,
                          &budget](std::size_t id) {
    ZoneOutcome out;
    // Rule 2 (isolation): this zone's counters/histograms/spans land in
    // private shards; nothing floating-point is shared mid-round.
    std::optional<obs::ScopedMetricShard> bind;
    if (shard_metrics) {
      out.shard = std::make_unique<obs::MetricsRegistry>();
      bind.emplace(out.shard.get());
    }
    std::optional<obs::ScopedTraceShard> bind_trace;
    if (shard_traces) {
      // Binding the shard also isolates this thread's trace context, so
      // the driver's main-log span ids cannot leak in as parents: shard
      // roots stay unparented and merge_from re-parents them under the
      // round span.
      out.trace_shard = std::make_unique<obs::TraceLog>();
      bind_trace.emplace(out.trace_shard.get());
    }
    const auto t0 = std::chrono::steady_clock::now();
    out.result = cloud_->nanocloud(id).gather(budget[id], forks[id]);
    if (shard_metrics) {
      const auto dt = std::chrono::steady_clock::now() - t0;
      obs::observe("hier.zone.gather_us", {{"zone", std::to_string(id)}},
                   std::chrono::duration<double, std::micro>(dt).count());
    }
    return out;
  };

  // Refused zones get no task at all (index keeps the zone alignment):
  // a shed zone must consume no worker, no Rng draws, and no shard.
  // Without a pool each task runs to completion right here, its
  // exception (if any) held in the future like a pool task's.
  std::vector<std::optional<std::future<ZoneOutcome>>> futures(z);
  for (std::size_t id = 0; id < z; ++id) {
    if (!admitted(id)) continue;
    if (pool_ != nullptr) {
      futures[id] = pool_->submit([&zone_task, id] { return zone_task(id); });
    } else {
      std::packaged_task<ZoneOutcome()> task([&zone_task, id] {
        return zone_task(id);
      });
      futures[id] = task.get_future();
      task();
    }
  }

  // Barrier BEFORE any get(): every task references `forks` and `budget`
  // on this stack frame, so nothing may be propagated (and this frame
  // unwound) until all of them have finished.
  for (auto& f : futures) {
    if (f) f->wait();
  }

  std::vector<ZoneOutcome> outcomes(z);
  for (std::size_t id = 0; id < z; ++id) {
    if (futures[id]) {
      outcomes[id] = futures[id]->get();  // rethrows, id order
    } else {
      // Materialized on the driver thread: shed_result draws no Rng and
      // emits no metrics, so it is safe (and deterministic) here.
      outcomes[id].result =
          cloud.nanocloud(id).shed_result(budget[id]);
    }
  }

  // Rule 3 (reduction): merge shards, then fold results, both in
  // ascending zone order — fixed floating-point addition order (and, for
  // traces, fixed id/parent/depth assignment).
  if (obs::MetricsRegistry* base = obs::registry()) {
    for (const ZoneOutcome& o : outcomes) {
      if (o.shard) base->merge_from(*o.shard);
    }
  }
  if (obs::TraceLog* log = obs::trace()) {
    for (const ZoneOutcome& o : outcomes) {
      if (o.trace_shard) log->merge_from(*o.trace_shard, round_span);
    }
  }

  hierarchy::RegionalResult out;
  out.reconstruction = field::SpatialField(cloud.grid().field_width(),
                                           cloud.grid().field_height());
  out.zone_nrmse.resize(z, 0.0);
  const sim::LinkModel& uplink = cloud.uplink_link();
  for (std::size_t id = 0; id < z; ++id) {
    const hierarchy::GatherResult& res = outcomes[id].result;
    if (!plan.empty()) {
      if (admitted(id)) {
        cloud.guard()->record(id, res.m_used == 0 || res.failed_over,
                              res.virtual_s);
      } else {
        emit_shed(static_cast<std::uint32_t>(id), plan[id]);
      }
    }
    emit_zone_series(static_cast<std::uint32_t>(id), res);
    out.total_measurements += res.m_used;
    out.node_energy_j += res.node_energy_j;
    out.stats += res.stats;
    out.zone_nrmse[id] = res.nrmse;
    if (res.failed_over) ++out.failovers;
    if (res.degraded) ++out.degraded_zones;
    if (res.shed) ++out.shed_zones;
    out.outliers_rejected += res.outliers_rejected;
    out.virtual_s += res.virtual_s;
    cloud.grid().insert(out.reconstruction, id, res.reconstruction);

    // Uplink: the NC broker ships its support coefficients to the head
    // (32 B header + 16 B per coefficient).
    const std::size_t bytes = 32 + 16 * res.support_size;
    out.uplink_bytes += bytes;
    out.uplink_energy_j += uplink.tx_energy_j(bytes) +
                           uplink.rx_energy_j(bytes);
  }
  out.nrmse = field::field_nrmse(out.reconstruction, cloud.truth());
  if (obs::attached()) {
    // Regional rollups, plus the runner's own accounting.
    obs::add_counter("hier.localcloud.rounds");
    obs::add_counter("hier.localcloud.zones_gathered",
                     static_cast<double>(z));
    obs::add_counter("hier.localcloud.uplink_bytes",
                     static_cast<double>(out.uplink_bytes));
    obs::observe("hier.localcloud.nrmse", out.nrmse);
    obs::add_counter("exec.runner.rounds");
    obs::add_counter("exec.runner.zone_tasks", static_cast<double>(z));
    // Deliberately NO worker-count gauge: worker count is environment,
    // not campaign data, and emitting it would break the byte-identical
    // invariant the runner exists to provide.
  }
  return out;
}

hierarchy::RegionalResult ParallelCampaignRunner::run_round_uniform(
    std::size_t measurements_per_zone, linalg::Rng& rng) {
  std::vector<hierarchy::ZoneDecision> decisions(cloud_->zone_count());
  for (std::size_t id = 0; id < decisions.size(); ++id) {
    decisions[id].zone_id = id;
    decisions[id].measurements = measurements_per_zone;
  }
  return run_round(decisions, rng);
}

}  // namespace sensedroid::exec
