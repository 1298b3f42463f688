#include "topo/ledger.hpp"

#include <algorithm>
#include <limits>

#include "sim/intmath.hpp"
#include "sim/observe.hpp"

namespace topo {

namespace {

// Bytes below this are "drained" (absorbs float error from rate * dt folds).
constexpr double kEpsBytes = 1e-6;
// Transient rate markers used inside one recompute() pass.
constexpr double kUnfrozen = -1.0;
constexpr double kPending = -2.0;

}  // namespace

LinkLedger::LinkLedger(sim::Engine& engine, const Topology& topo,
                       fault::Schedule* faults)
    : engine_(&engine),
      topo_(&topo),
      faults_(faults),
      exclusive_busy_until_(topo.links.size(), 0),
      residual_(topo.links.size(), 0.0),
      users_(topo.links.size()),
      pair_fin_(static_cast<std::size_t>((topo.num_devices() + 1) *
                                         (topo.num_devices() + 1)),
                0) {}

std::size_t LinkLedger::pair_index(const Route& route) const {
  // Staging routes carry -1 for their host end.
  const auto n = static_cast<std::size_t>(topo_->num_devices()) + 1;
  return static_cast<std::size_t>(route.src + 1) * n +
         static_cast<std::size_t>(route.dst + 1);
}

double LinkLedger::faulty_scale(int li, sim::Nanos at) {
  if (faults_ == nullptr || !faults_->enabled()) return 1.0;
  const auto id = static_cast<std::uint64_t>(li);
  const double s = faults_->link_scale(id, at);
  if (s < 1.0 && faults_->first_sight(fault::Site::kLinkWindow, id, at)) {
    if (sim::Observer* o = engine_->observer()) {
      // Machine-level fault: no single actor timeline owns a link window, so
      // the actor slot stays invalid and `what` names the wire.
      o->on_fault(sim::Actor{}, fault::site_name(fault::Site::kLinkWindow),
                  topo_->links[static_cast<std::size_t>(li)].name);
    }
  }
  return s;
}

sim::Nanos LinkLedger::reserve_exclusive(const Route& route, double bytes,
                                         sim::Nanos earliest_start,
                                         std::string_view what) {
  sim::Nanos start = earliest_start;
  for (int li : route.links) {
    if (topo_->links[static_cast<std::size_t>(li)].policy ==
        LinkPolicy::kExclusive) {
      start = std::max(start, exclusive_busy_until_[static_cast<std::size_t>(li)]);
    }
  }
  // A degradation window open at the wire slot's start scales the whole
  // reservation (the closed-form path charges one rate per transfer).
  double bw = route.min_bw;
  if (faults_ != nullptr && faults_->enabled()) {
    double s = 1.0;
    for (int li : route.links) s = std::min(s, faulty_scale(li, start));
    if (s > 0.0) bw *= s;
  }
  const sim::Nanos dur = bytes <= 0.0 ? 0 : sim::ceil_nanos(bytes / bw);
  const sim::Nanos end = start + dur;
  for (int li : route.links) {
    if (topo_->links[static_cast<std::size_t>(li)].policy ==
        LinkPolicy::kExclusive) {
      exclusive_busy_until_[static_cast<std::size_t>(li)] = end;
    }
  }
  if (sim::Observer* o = engine_->observer()) {
    const std::uint64_t id = next_id_++;
    for (int li : route.links) {
      o->on_link_busy(id, topo_->links[static_cast<std::size_t>(li)].name,
                      /*concurrent=*/1, start - earliest_start, what);
    }
    // The release is pure observation at the wire end; the caller's own
    // completion delay always reaches or passes that instant, so simulated
    // time is unaffected.
    engine_->schedule_callback(
        [this, id, links = route.links] {
          if (sim::Observer* obs = engine_->observer()) {
            for (int li : links) {
              obs->on_link_release(
                  id, topo_->links[static_cast<std::size_t>(li)].name,
                  /*concurrent=*/0);
            }
          }
        },
        end - engine_->now());
  }
  return end;
}

sim::Task LinkLedger::wire_shared(const Route& route, double bytes,
                                  sim::Nanos issue_delay,
                                  std::string_view what) {
  co_await engine_->delay(issue_delay);
  if (bytes <= 0.0) co_return;
  // Admission mutates the shared flight table and must observe every other
  // admission in canonical order; under sharding the coroutine crosses into
  // the serialized phase first (same simulated instant). No-op when serial.
  co_await engine_->global_gate();
  const sim::Nanos now = engine_->now();
  fold(now);
  auto f = std::make_shared<Flight>(*engine_);
  f->id = next_id_++;
  f->route = &route;
  f->remaining = bytes;
  for (int li : route.links) {
    const Link& l = topo_->links[static_cast<std::size_t>(li)];
    if (l.policy == LinkPolicy::kUnlimited &&
        (f->cap == 0.0 || l.bw_gbps < f->cap)) {
      f->cap = l.bw_gbps;
    }
  }
  flights_.emplace(f->id, f);
  if (sim::Observer* o = engine_->observer()) {
    for (int li : route.links) {
      o->on_link_busy(f->id, topo_->links[static_cast<std::size_t>(li)].name,
                      flights_on_link(li), /*queued_ns=*/0, what);
    }
  }
  recompute(now);
  reschedule(now);
  co_await f->done.wait_geq(1);
}

int LinkLedger::flights_on_link(int li) const {
  int n = 0;
  for (const auto& [id, f] : flights_) {
    for (int rl : f->route->links) {
      if (rl == li) {
        ++n;
        break;
      }
    }
  }
  return n;
}

void LinkLedger::fold(sim::Nanos now) {
  const double dt = static_cast<double>(now - last_fold_);
  if (dt > 0.0) {
    for (auto& [id, f] : flights_) {
      f->remaining = std::max(0.0, f->remaining - f->rate * dt);
    }
  }
  last_fold_ = now;
}

void LinkLedger::recompute(sim::Nanos now) {
  // Max-min water-filling over flights that still have bytes on the wire.
  draining_.clear();
  for (auto& [id, f] : flights_) {
    if (f->remaining > kEpsBytes) {
      f->rate = kUnfrozen;
      draining_.push_back(f.get());
    } else {
      f->rate = 0.0;
    }
  }
  // Contended capacity per link (kShared; kExclusive treated the same on the
  // rare mixed route) and its draining users, in admission order. Touched
  // links are visited in ascending id, which fixes every tie-break below.
  // Every (flight, link) consults the fault scale, which publishes a window
  // once on first sight; the link's first consult sets its capacity.
  touched_.clear();
  for (Flight* f : draining_) {
    for (int li : f->route->links) {
      const auto l = static_cast<std::size_t>(li);
      if (topo_->links[l].policy == LinkPolicy::kUnlimited) continue;
      const double scale = faulty_scale(li, now);
      if (users_[l].empty()) {
        residual_[l] = topo_->links[l].bw_gbps * scale;
        touched_.push_back(li);
      }
      users_[l].push_back(f);
    }
  }
  std::sort(touched_.begin(), touched_.end());
  std::size_t unfrozen = draining_.size();
  while (unfrozen > 0) {
    // The next bottleneck: smallest equal-split share over any contended
    // link, or the smallest per-flight kUnlimited cap, whichever binds first.
    double share = std::numeric_limits<double>::infinity();
    for (int li : touched_) {
      const auto l = static_cast<std::size_t>(li);
      int cnt = 0;
      for (Flight* f : users_[l]) cnt += f->rate == kUnfrozen ? 1 : 0;
      if (cnt > 0) share = std::min(share, residual_[l] / cnt);
    }
    for (Flight* f : draining_) {
      if (f->rate == kUnfrozen && f->cap > 0.0) share = std::min(share, f->cap);
    }
    // Freeze every flight pinned by a constraint at the bottleneck share.
    const double lim = share * (1.0 + 1e-12);
    freeze_.clear();
    auto mark = [this](Flight* f) {
      if (f->rate == kUnfrozen) {
        f->rate = kPending;
        freeze_.push_back(f);
      }
    };
    for (int li : touched_) {
      const auto l = static_cast<std::size_t>(li);
      int cnt = 0;
      for (Flight* f : users_[l]) {
        cnt += (f->rate == kUnfrozen || f->rate == kPending) ? 1 : 0;
      }
      if (cnt > 0 && residual_[l] / cnt <= lim) {
        for (Flight* f : users_[l]) mark(f);
      }
    }
    for (Flight* f : draining_) {
      if (f->rate == kUnfrozen && f->cap > 0.0 && f->cap <= lim) mark(f);
    }
    if (freeze_.empty()) {
      // Numerical backstop; unreachable for exact-arithmetic inputs.
      for (Flight* f : draining_) mark(f);
    }
    for (Flight* f : freeze_) {
      f->rate = share;
      for (int li : f->route->links) {
        const auto l = static_cast<std::size_t>(li);
        if (!users_[l].empty()) {
          residual_[l] = std::max(0.0, residual_[l] - share);
        }
      }
      --unfrozen;
    }
  }
  for (int li : touched_) users_[static_cast<std::size_t>(li)].clear();
  // Finish times, clamped FIFO per ordered (src, dst) pair in admission
  // order: a later transfer of a pair never lands before an earlier one.
  for (auto& [id, f] : flights_) {
    sim::Nanos fin = now;
    if (f->remaining > kEpsBytes) {
      fin = now + sim::ceil_nanos(f->remaining / f->rate);
    } else {
      f->remaining = 0.0;
    }
    sim::Nanos& last = pair_fin_[pair_index(*f->route)];
    fin = std::max(fin, last);
    last = fin;
    f->finish_at = fin;
  }
  for (const auto& [id, f] : flights_) pair_fin_[pair_index(*f->route)] = 0;
}

void LinkLedger::reschedule(sim::Nanos now) {
  if (flights_.empty()) {
    wake_.cancel();
    wake_at_ = -1;
    return;
  }
  sim::Nanos next = std::numeric_limits<sim::Nanos>::max();
  for (const auto& [id, f] : flights_) next = std::min(next, f->finish_at);
  if (wake_.armed() && wake_at_ == next) return;
  wake_.cancel();
  // Coordinator timer under sharding: the completion wake touches flights
  // from every shard, and pending coordinator timers cap the lookahead
  // window so this callback can never fire late for any shard.
  wake_ = engine_->schedule_callback_global([this] { on_wake(); }, next - now);
  wake_at_ = next;
}

void LinkLedger::on_wake() {
  const sim::Nanos now = engine_->now();
  wake_at_ = -1;
  fold(now);
  std::vector<std::shared_ptr<Flight>> landed;
  for (auto it = flights_.begin(); it != flights_.end();) {
    if (it->second->finish_at <= now) {
      landed.push_back(it->second);
      it = flights_.erase(it);
    } else {
      ++it;
    }
  }
  if (sim::Observer* o = engine_->observer()) {
    for (const auto& f : landed) {
      for (int li : f->route->links) {
        o->on_link_release(f->id,
                           topo_->links[static_cast<std::size_t>(li)].name,
                           flights_on_link(li));
      }
    }
  }
  recompute(now);
  reschedule(now);
  // Wake the transfers last, with the ledger already consistent; they resume
  // through the event queue at the current instant, in admission order.
  for (const auto& f : landed) f->done.set(1);
}

}  // namespace topo
