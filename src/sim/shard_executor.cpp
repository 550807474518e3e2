#include "sim/shard_executor.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace dqos {

namespace {

/// Bounded spin with escalating politeness: brief busy loop for the common
/// sub-microsecond barrier, then yield so an oversubscribed (or
/// single-core) machine makes progress instead of burning a quantum.
struct Backoff {
  std::uint32_t spins = 0;
  void pause() {
    if (++spins < 64) return;
    std::this_thread::yield();
  }
};

/// Feeds `fn` every record of the shards' `field` logs in (at_ps, order)
/// order. Each shard's log is already in that order and no two shards share
/// a tag, so a k-way merge of the log heads is the serial record order.
template <typename Rec, typename Fn>
void merge_logs(std::vector<ShardWindowLog>& logs,
                std::vector<Rec> ShardWindowLog::*field,
                std::vector<std::uint32_t>& cursor, Fn&& fn) {
  const auto n = static_cast<std::uint32_t>(logs.size());
  std::fill(cursor.begin(), cursor.end(), 0u);
  for (;;) {
    std::uint32_t best = n;
    const Rec* head = nullptr;
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::vector<Rec>& v = logs[s].*field;
      if (cursor[s] >= v.size()) continue;
      const Rec& r = v[cursor[s]];
      if (head == nullptr || r.at_ps < head->at_ps ||
          (r.at_ps == head->at_ps && r.order < head->order)) {
        best = s;
        head = &r;
      }
    }
    if (head == nullptr) return;
    ++cursor[best];
    fn(*head);
  }
}

/// Window-time fire hook of a shard calendar: appends a HookRecord.
void record_fire(void* log, std::uint64_t key, TimePoint t) {
  auto* l = static_cast<ShardWindowLog*>(log);
  l->hooked.push_back(HookRecord{t.ps(), l->sim->merge_key(), key});
}

}  // namespace

ShardExecutor::ShardExecutor(Simulator& control, std::uint32_t num_shards,
                             std::int64_t lookahead_ps, bool use_threads)
    : control_(control), lookahead_ps_(lookahead_ps) {
  DQOS_EXPECTS(num_shards >= 2);
  DQOS_EXPECTS(lookahead_ps > 0);
  sims_.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  logs_.resize(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    logs_[s].sim = sims_[s].get();
    logs_[s].outboxes.resize(num_shards);
    logs_[s].sent.resize(num_shards);
  }
  mail_in_.assign(num_shards, 0);
  cursor_.assign(num_shards, 0);
  if (use_threads) {
    workers_.reserve(num_shards - 1);
    for (std::uint32_t s = 1; s < num_shards; ++s) {
      workers_.emplace_back([this, s] { worker_main(s); });
    }
  }
}

ShardExecutor::~ShardExecutor() {
  if (!workers_.empty()) {
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread& w : workers_) w.join();
  }
}

void ShardExecutor::set_fire_hook(Callback<void(std::uint64_t, TimePoint)> hook) {
  hook_ = hook;
  // Serial instants run through Simulator::step_due, which emits the hook
  // itself — in true global order, since instants are single-threaded.
  // run_window swaps the shard calendars to record_fire for each window.
  control_.set_fire_hook(hook);
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    sim->set_fire_hook(hook);
  }
}

std::int64_t ShardExecutor::peek_time(Simulator& sim) {
  std::int64_t tps = 0;
  std::uint64_t key = 0;
  if (!sim.peek_next(tps, key)) return std::numeric_limits<std::int64_t>::max();
  return tps;
}

std::uint64_t ShardExecutor::events_processed() const {
  std::uint64_t n = control_.events_processed();
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    n += sim->events_processed();
  }
  return n;
}

std::uint64_t ShardExecutor::cross_messages() const {
  std::uint64_t n = 0;
  for (const std::uint64_t m : mail_in_) n += m;
  return n;
}

std::size_t ShardExecutor::events_pending() const {
  std::size_t n = control_.events_pending();
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    n += sim->events_pending();
  }
  return n;
}

void ShardExecutor::deliver_inbox(std::uint32_t s) {
  std::uint64_t n = 0;
  for (ShardWindowLog& src : logs_) {
    std::vector<CrossMsg>& box = src.sent[s];
    for (CrossMsg& m : box) {
      n += m.at_ps != CrossMsg::kNoLanding;
      m.deliver(std::move(m));
    }
    box.clear();
  }
  mail_in_[s] += n;
}

void ShardExecutor::flush_mail() {
  for (std::uint32_t s = 0; s < num_shards(); ++s) deliver_inbox(s);
  for (ShardWindowLog& log : logs_) log.sent_min_ps = CrossMsg::kNoLanding;
}

void ShardExecutor::drain_shard(std::uint32_t s) {
  const TimePoint limit = TimePoint::from_ps(window_limit_ps_);
  Simulator& sim = *sims_[s];
  PacketPool::set_current_shard(static_cast<std::int32_t>(s));
  deliver_inbox(s);
  while (sim.drain_due(limit)) {
  }
  PacketPool::set_current_shard(-1);
}

void ShardExecutor::worker_main(std::uint32_t s) {
  std::uint64_t seen = 0;
  for (;;) {
    Backoff bo;
    std::uint64_t e;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) bo.pause();
    seen = e;
    if (stop_.load(std::memory_order_relaxed)) return;
    drain_shard(s);
    arrived_.fetch_add(1, std::memory_order_release);
  }
}

void ShardExecutor::run_window(std::int64_t limit_ps) {
  ++windows_;
  ++window_id_;
  window_limit_ps_ = limit_ps;
  if (hook_) {
    for (std::uint32_t s = 0; s < num_shards(); ++s) {
      sims_[s]->set_fire_hook({&record_fire, &logs_[s]});
    }
  }
  window_active_ = true;
  if (workers_.empty()) {
    for (std::uint32_t s = 0; s < num_shards(); ++s) drain_shard(s);
  } else {
    epoch_.fetch_add(1, std::memory_order_release);
    drain_shard(0);
    Backoff bo;
    const std::uint32_t n = static_cast<std::uint32_t>(workers_.size());
    while (arrived_.load(std::memory_order_acquire) != n) bo.pause();
    arrived_.store(0, std::memory_order_relaxed);
  }
  window_active_ = false;
  if (hook_) {
    for (const std::unique_ptr<Simulator>& sim : sims_) {
      sim->set_fire_hook(hook_);
    }
  }
  barrier_merge();
}

void ShardExecutor::barrier_merge() {
  if (hook_) {
    merge_logs(logs_, &ShardWindowLog::hooked, cursor_,
               [this](const HookRecord& r) {
                 hook_(r.key, TimePoint::from_ps(r.at_ps));
               });
  }
  merge_logs(logs_, &ShardWindowLog::effects, cursor_,
             [this](const DeferredEffect& e) { effect_sink_(e); });
  if (barrier_hook_) barrier_hook_();
  // Every shard delivered last window's mail at the start of this one, so
  // the `sent` generation is empty and this window's outboxes take its
  // place. The lookahead guarantee: nothing lands at or before the edge.
  for (ShardWindowLog& log : logs_) {
    DQOS_ASSERT(log.out_min_ps > window_limit_ps_);
    log.close_window();
  }
}

void ShardExecutor::run_instant(std::int64_t t_ps) {
  ++instants_;
  const TimePoint limit = TimePoint::from_ps(t_ps);
  // Align every clock first: a control event may synchronously touch a
  // shard's components (retarget a source, open a flow), and those read
  // their own calendar's now() — which must equal the instant, exactly as
  // in the serial run, even on shards with no event due here.
  if (control_.now() < limit) control_.advance_to(limit);
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    if (sim->now() < limit) sim->advance_to(limit);
  }
  // Interleave every calendar's events at this instant in global
  // (time, entity, counter) order: always pop the smallest head key, as the
  // serial calendar would. New events scheduled at the same instant join
  // the interleave via the re-peek.
  for (;;) {
    Simulator* pick = nullptr;
    std::uint64_t pick_key = 0;
    const auto consider = [&](Simulator& sim) {
      std::int64_t tps = 0;
      std::uint64_t key = 0;
      if (!sim.peek_next(tps, key) || tps != t_ps) return;
      if (pick == nullptr || key < pick_key) {
        pick = &sim;
        pick_key = key;
      }
    };
    consider(control_);
    for (const std::unique_ptr<Simulator>& sim : sims_) consider(*sim);
    if (pick == nullptr) break;
    const bool fired = pick->step_due(limit);
    DQOS_ASSERT(fired);
    static_cast<void>(fired);
  }
}

void ShardExecutor::run_until(TimePoint t) {
  const std::int64_t target_ps = t.ps();
  for (;;) {
    std::int64_t t_ctrl = peek_time(control_);
    std::int64_t t_min = std::numeric_limits<std::int64_t>::max();
    for (const std::unique_ptr<Simulator>& sim : sims_) {
      t_min = std::min(t_min, peek_time(*sim));
    }
    for (const ShardWindowLog& log : logs_) {
      t_min = std::min(t_min, log.sent_min_ps);
    }
    const std::int64_t next = std::min(t_ctrl, t_min);
    if (next > target_ps) break;
    if (t_ctrl <= t_min) {
      flush_mail();
      run_instant(t_ctrl);
      continue;
    }
    // Conservative window over [t_min, H): no calendar can produce a
    // cross-shard effect before t_min + lookahead, and the control
    // calendar (whose events may touch any shard) is not due before H.
    std::int64_t horizon = t_min + lookahead_ps_;
    horizon = std::min(horizon, t_ctrl);
    horizon = std::min(horizon, target_ps + 1);
    DQOS_ASSERT(horizon > t_min);
    run_window(horizon - 1);
  }
  flush_mail();
  if (control_.now() < t) control_.advance_to(t);
  for (const std::unique_ptr<Simulator>& sim : sims_) {
    if (sim->now() < t) sim->advance_to(t);
  }
}

}  // namespace dqos
