#include "core/network_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/config_io.hpp"
#include "core/run_controller.hpp"
#include "topo/kary_ntree.hpp"
#include "topo/mesh2d.hpp"
#include "topo/single_switch.hpp"
#include "topo/two_level_clos.hpp"
#include "traffic/control_source.hpp"
#include "traffic/selfsimilar_source.hpp"
#include "traffic/video_source.hpp"
#include "traffic/video_trace.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace dqos {
namespace {

std::array<VcId, kNumTrafficClasses> class_vc_map(std::uint8_t num_vcs) {
  switch (num_vcs) {
    case 1: return {0, 0, 0, 0};
    case 2: return {0, 0, 1, 1};
    case 3: return {0, 0, 1, 2};
    default: return {0, 1, 2, 3};  // one VC per class (A5)
  }
}

bool same_pattern(const PatternParams& a, const PatternParams& b) {
  return a.kind == b.kind && a.hotspot_fraction == b.hotspot_fraction &&
         a.hotspot_node == b.hotspot_node &&
         a.permutation_seed == b.permutation_seed;
}

}  // namespace

NetworkSimulator::NetworkSimulator(const SimConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), metrics_(std::make_shared<MetricsCollector>()) {
  cfg_.validate();
  fault_active_ = cfg_.fault.enabled || cfg_.fault.any_faults();
  // Frame-aware degradation rides the expiry switch: when the NIC drops
  // late packets, the video sources also withhold the next B frame.
  cfg_.video.drop_late_b_frames = cfg_.expiry_drop;
  build_topology();
  build_shards();
  injector_ = std::make_unique<FaultInjector>(sim_, *topo_, cfg_.fault);
  injector_->set_admission(admission_.get());
  if (fault_active_ && cfg_.fault.watchdog_interval > Duration::zero()) {
    watchdog_ = std::make_unique<DeadlockWatchdog>(
        sim_, cfg_.fault.watchdog_interval, cfg_.fault.watchdog_rounds);
    if (engine_) {
      // The control calendar alone reads empty at end of run while data
      // events still sit on shard calendars; the final-check probe must
      // span every calendar or it false-fires under sharding.
      watchdog_->set_pending_probe(
          {[](void* c) {
             return static_cast<ShardExecutor*>(c)->events_pending();
           },
           engine_.get()});
    }
  }
  if (cfg_.fault.audit_epoch > Duration::zero()) {
    auditor_ = std::make_unique<InvariantAuditor>(sim_, pool_);
    auditor_->set_admission(admission_.get());
    for (const auto& p : shard_pools_) auditor_->register_pool(p.get());
  }
  build_nodes();
  build_channels();
  if (!cfg_.video_trace_path.empty()) {
    video_trace_ = load_frame_trace(cfg_.video_trace_path);
    // A configured-but-unreadable trace is a setup error, not a fallback —
    // caught at construction even though the workload is built lazily.
    DQOS_EXPECTS(!video_trace_.empty());
  }
}

NetworkSimulator::~NetworkSimulator() {
  // The last window's barrier drained every lane; this catches frees parked
  // by an aborted (exception) run so the pool dtor census still holds.
  for (const auto& p : shard_pools_) p->drain_free_lanes();
}

void NetworkSimulator::build_shards() {
  // More shards than switches would leave empty calendars; clamp instead of
  // erroring so one sweep config can span topology sizes.
  const std::uint32_t shards = std::min(
      cfg_.shards, std::max<std::uint32_t>(topo_->num_switches(), 1));
  if (shards <= 1) return;
  part_ = partition_topology(*topo_, shards);
  const bool threads =
      cfg_.shard_threads == 1 ||
      (cfg_.shard_threads == -1 && std::thread::hardware_concurrency() > 1);
  // The conservative lookahead: every cross-shard interaction rides a
  // channel, and every channel has the same fixed wire latency.
  engine_ = std::make_unique<ShardExecutor>(sim_, shards,
                                            cfg_.link_latency.ps(), threads);
  engine_window_ = engine_->window_active_flag();
  shard_pools_.reserve(shards);
  shard_metrics_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shard_pools_.push_back(std::make_unique<PacketPool>());
    shard_pools_.back()->enable_cross_free(shards,
                                           static_cast<std::int32_t>(s));
    shard_metrics_.push_back(std::make_unique<MetricsCollector>());
    shard_metrics_.back()->set_relay(metrics_.get(), &engine_->log(s),
                                     engine_window_);
  }
  engine_->set_effect_sink({[](void* ctx, const DeferredEffect& e) {
                              auto* self = static_cast<NetworkSimulator*>(ctx);
                              if (e.kind == DeferredEffect::Kind::kFlowAborted) {
                                self->finish_flow_abort(
                                    static_cast<FlowId>(e.id));
                              } else {
                                self->metrics_->apply(e);
                              }
                            },
                            this});
  engine_->set_barrier_hook(
      {[](void* ctx) { static_cast<NetworkSimulator*>(ctx)->on_shard_barrier(); },
       this});
}

Simulator& NetworkSimulator::sim_for(NodeId n) {
  return engine_ ? engine_->shard_sim(part_.shard_of(n)) : sim_;
}

MetricsCollector* NetworkSimulator::metrics_for(NodeId n) {
  return engine_ ? shard_metrics_[part_.shard_of(n)].get() : metrics_.get();
}

PacketPool& NetworkSimulator::pool_for(NodeId n) {
  return engine_ ? *shard_pools_[part_.shard_of(n)] : pool_;
}

void NetworkSimulator::on_shard_barrier() {
  for (const auto& p : shard_pools_) p->drain_free_lanes();
}

void NetworkSimulator::attach_tracer(PacketTracer& tracer) {
  if (engine_) {
    // The tracer is one unsynchronized buffer fed in event order; shard
    // workers would race on it, and inline shards emit out of time order.
    std::string why = "--trace needs a serial run: this config resolves to ";
    why += std::to_string(engine_->num_shards());
    why += " shards; rerun with --shards=1";
    throw ConfigError(why);
  }
  for (const auto& h : hosts_) h->set_tracer(&tracer);
  for (const auto& sw : switches_) sw->set_tracer(&tracer);
  injector_->set_tracer(&tracer);
}

void NetworkSimulator::run_calendar_until(TimePoint t) {
  if (engine_) {
    engine_->run_until(t);
  } else {
    sim_.run_until(t);
  }
}

void NetworkSimulator::build_topology() {
  switch (cfg_.topology) {
    case TopologyKind::kFoldedClos:
      topo_ = make_two_level_clos(cfg_.num_leaves, cfg_.hosts_per_leaf,
                                  cfg_.num_spines);
      break;
    case TopologyKind::kKaryNTree:
      topo_ = make_kary_ntree(cfg_.kary_k, cfg_.kary_n);
      break;
    case TopologyKind::kSingleSwitch:
      topo_ = make_single_switch(cfg_.single_switch_hosts);
      break;
    case TopologyKind::kMesh2D:
      topo_ = make_mesh2d(cfg_.mesh_width, cfg_.mesh_height,
                          cfg_.mesh_concentration);
      break;
  }
  admission_ = std::make_unique<AdmissionController>(
      *topo_, cfg_.link_bw, cfg_.reservable_fraction, cfg_.hier_admission);
  admission_->set_class_vc_map(class_vc_map(cfg_.num_vcs));
  pattern_ = make_pattern(cfg_.pattern, topo_->num_hosts());
}

void NetworkSimulator::build_nodes() {
  Rng clock_rng = rng_.split(0x10c);
  auto draw_offset = [&]() -> Duration {
    if (cfg_.max_clock_skew <= Duration::zero()) return Duration::zero();
    return Duration::picoseconds(static_cast<std::int64_t>(
        clock_rng.uniform_int(0, static_cast<std::uint64_t>(cfg_.max_clock_skew.ps()))));
  };

  SwitchParams sw;
  sw.arch = cfg_.arch;
  sw.num_vcs = cfg_.num_vcs;
  sw.buffer_bytes_per_vc = cfg_.buffer_bytes_per_vc;
  sw.vc_weights = cfg_.vc_weights;
  sw.heap_op_latency = cfg_.heap_op_latency;
  switches_.reserve(topo_->num_switches());
  for (std::uint32_t s = 0; s < topo_->num_switches(); ++s) {
    const NodeId id = topo_->switch_id(s);
    switches_.push_back(std::make_unique<Switch>(
        sim_for(id), id, topo_->num_ports(id), sw, LocalClock(draw_offset())));
    switches_.back()->set_drop_callback(
        {[](void* ctx, TrafficClass tc) {
           static_cast<MetricsCollector*>(ctx)->on_packet_dropped(tc);
         },
         metrics_for(id)});
    injector_->register_switch(switches_.back().get());
    if (watchdog_) watchdog_->register_switch(switches_.back().get());
    if (auditor_) auditor_->register_switch(switches_.back().get());
  }

  HostParams hp;
  hp.num_vcs = cfg_.num_vcs;
  hp.mtu_bytes = cfg_.mtu_bytes;
  hp.edf_queues = cfg_.arch != SwitchArch::kTraditional2Vc;
  hp.vc_weights = cfg_.vc_weights;
  hp.expiry_drop = cfg_.expiry_drop;
  hp.expiry_abort_ratio = cfg_.expiry_abort_ratio;
  hosts_.reserve(topo_->num_hosts());
  // Warm the packet pool(s) to the expected steady-state working set (a few
  // packets in flight per host plus NIC backlog) so the measured phase never
  // touches the general heap on the packet path. Sharded runs allocate from
  // per-shard pools, warmed by their own hosts' share.
  if (engine_) {
    for (NodeId h = 0; h < topo_->num_hosts(); ++h) {
      pool_for(h).preallocate(pool_for(h).free_count() + 64);
    }
  } else {
    pool_.preallocate(static_cast<std::size_t>(topo_->num_hosts()) * 64);
  }
  const bool retry_on = fault_active_ && cfg_.fault.control_retry;
  for (NodeId h = 0; h < topo_->num_hosts(); ++h) {
    hosts_.push_back(std::make_unique<Host>(sim_for(h), h, hp,
                                            LocalClock(draw_offset()),
                                            pool_for(h)));
    hosts_.back()->set_packet_callback(
        [m = metrics_for(h)](const Packet& p, TimePoint now, Duration slack) {
          m->on_packet_delivered(p, now, slack);
        });
    // Message completion doubles as the (zero-latency, control-plane) ack
    // that disarms a pending control retry at the source. (Retries are
    // config-rejected under sharding: the ack is a cross-host touch no
    // lookahead covers.)
    hosts_.back()->set_message_callback(
        [this, retry_on, m = metrics_for(h)](const MessageDelivered& d) {
          m->on_message_delivered(d.tclass, d.created, d.bytes, d.completed);
          if (retry_on && d.tclass == TrafficClass::kControl) {
            if (const NodeId* src = flow_src_.find(d.flow)) {
              hosts_[*src]->on_message_acked(d.flow, d.message_id);
            }
          }
        });
    if (retry_on) {
      hosts_.back()->enable_control_retry(
          Host::RetryParams{cfg_.fault.retry_timeout, cfg_.fault.max_retries});
    }
    if (cfg_.expiry_drop) {
      hosts_.back()->set_expired_callback(
          [m = metrics_for(h)](const Packet& p, TimePoint /*now*/) {
            m->on_packet_expired(p);
          });
      hosts_.back()->set_flow_aborted_callback(
          [this](FlowId id) { on_flow_aborted(id); });
    }
    injector_->register_host(hosts_.back().get());
    if (watchdog_) watchdog_->register_host(hosts_.back().get());
    if (auditor_) auditor_->register_host(hosts_.back().get());
  }
}

void NetworkSimulator::build_channels() {
  // One directed channel per (node, port) with a wired peer.
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    for (PortId p = 0; p < topo_->num_ports(n); ++p) {
      const Endpoint peer = topo_->peer(n, p);
      if (!peer.valid()) continue;
      channels_.push_back(std::make_unique<Channel>(
          sim_for(n), cfg_.link_bw, cfg_.link_latency, cfg_.num_vcs,
          cfg_.buffer_bytes_per_vc));
      Channel* ch = channels_.back().get();
      if (engine_) {
        const std::uint32_t s_src = part_.shard_of(n);
        const std::uint32_t s_dst = part_.shard_of(peer.node);
        if (s_src != s_dst) {
          ch->set_cross_shard(engine_.get(), s_src, s_dst,
                              &engine_->shard_sim(s_dst));
        }
      }
      injector_->register_channel(Endpoint{n, p}, ch);
      if (auditor_) auditor_->register_channel(Endpoint{n, p}, ch);
      channel_tier_.push_back(topo_->is_host(n)
                                  ? LinkTier::kInjection
                                  : (topo_->is_host(peer.node) ? LinkTier::kDelivery
                                                               : LinkTier::kFabric));
      // Receiver side.
      if (topo_->is_switch(peer.node)) {
        Switch& sw = *switches_[topo_->switch_index(peer.node)];
        ch->connect_to(&sw, peer.port);
        sw.attach_input(peer.port, ch);
      } else {
        Host& host = *hosts_[peer.node];
        ch->connect_to(&host, 0);
        host.attach_downlink(ch);
      }
      // Sender side.
      if (topo_->is_switch(n)) {
        switches_[topo_->switch_index(n)]->attach_output(p, ch);
      } else {
        hosts_[n]->attach_uplink(ch);
      }
    }
  }
}

double NetworkSimulator::phase_rate(const PhaseSpec& ph, TrafficClass c) const {
  return ph.load * ph.class_share[static_cast<std::size_t>(c)] *
         cfg_.link_bw.bytes_per_sec();
}

std::uint32_t NetworkSimulator::bounded_fanout() const {
  const std::uint32_t n = topo_->num_hosts();
  return (cfg_.fanout > 0 && n >= 2 && cfg_.fanout < n - 1) ? cfg_.fanout : 0;
}

void NetworkSimulator::activate_pattern(const PatternParams& params) {
  if (same_pattern(params, active_pattern_params_)) return;
  extra_patterns_.push_back(make_pattern(params, topo_->num_hosts()));
  active_pattern_ = extra_patterns_.back().get();
  active_pattern_params_ = params;
}

void NetworkSimulator::prepare_workload() {
  prepare_workload(Scenario::single_phase(cfg_));
}

void NetworkSimulator::prepare_workload(const Scenario& scn) {
  if (workload_prepared_) return;
  workload_prepared_ = true;
  DQOS_EXPECTS(!scn.phases.empty());
  const PhaseSpec& p0 = scn.phases.front();
  active_pattern_ = pattern_.get();
  active_pattern_params_ = cfg_.pattern;
  activate_pattern(p0.pattern);  // no-op for single_phase(cfg_)
  // A class's sources exist iff it is enabled and offers load in *some*
  // phase; phase 0 sets the initial rate (possibly zero = paused). For a
  // one-phase scenario this collapses to the legacy "enabled && rate > 0".
  const auto peak_rate = [&](TrafficClass c) {
    double r = 0.0;
    for (const PhaseSpec& ph : scn.phases) {
      r = std::max(r, phase_rate(ph, c));
    }
    return r;
  };
  // Per-stream video rate: from the trace if one is configured, else from
  // the clamp-corrected synthetic model, so the class actually offers its
  // Table 1 share. Computed once — churn admissions reuse it. (The
  // estimate draws from a fresh split of the seed, so hoisting it out of
  // the per-host loop changes no stream: every host saw the same value.)
  if (cfg_.enable_video) {
    video_realized_bps_ =
        video_trace_.empty()
            ? VideoSource::estimate_realized_bytes_per_sec(cfg_.video,
                                                           rng_.split(0x71de0))
            : TraceVideoSource::trace_mean_bytes(video_trace_) /
                  cfg_.video.frame_period.sec();
  }
  const std::uint32_t n = topo_->num_hosts();
  const std::uint32_t fanout = bounded_fanout();
  for (NodeId h = 0; h < n; ++h) {
    Host& host = *hosts_[h];
    Rng host_rng = rng_.split(0xbeef0000ULL + h);

    // Bounded fanout (datacenter scale): draw this host's peer set once —
    // pattern-shaped, deterministic from the seed — and share it across
    // the per-destination classes below. Their flow tables and admission
    // records then grow O(fanout) per host instead of O(N). fanout == 0
    // (the default, and every golden config) takes the all-peers path and
    // draws nothing, so legacy runs stay byte-identical.
    std::vector<NodeId> peers;
    const DestinationPattern* host_pattern = active_pattern_;
    if (fanout > 0) {
      Rng peer_rng = host_rng.split(7);
      std::vector<std::uint8_t> chosen(n, 0);
      // Deterministic patterns (transpose, tornado) offer fewer distinct
      // destinations than asked; the attempt cap makes that a smaller peer
      // set rather than a spin.
      for (std::uint32_t tries = 0;
           peers.size() < fanout && tries < 16u * fanout + n; ++tries) {
        const NodeId d = active_pattern_->pick(h, peer_rng);
        if (d == h || chosen[d] != 0) continue;
        chosen[d] = 1;
        peers.push_back(d);
      }
      std::sort(peers.begin(), peers.end());
      peer_patterns_.push_back(std::make_unique<SubsetPattern>(peers));
      host_pattern = peer_patterns_.back().get();
    } else {
      peers.reserve(n - 1);
      for (NodeId d = 0; d < n; ++d) {
        if (d != h) peers.push_back(d);
      }
    }

    // ---- Control: latency-critical small messages to patterned peers ----
    if (cfg_.enable_control && peak_rate(TrafficClass::kControl) > 0.0) {
      std::vector<FlowId> flows_by_dst(n, kInvalidFlow);
      for (const NodeId d : peers) {
        FlowRequest req;
        req.src = h;
        req.dst = d;
        req.tclass = TrafficClass::kControl;
        req.policy = DeadlinePolicy::kControlLatency;
        const auto spec = admission_->admit(req);
        DQOS_ASSERT(spec.has_value());  // control reserves nothing
        host.open_flow(*spec);
        flow_src_.insert(spec->id, h);
        flows_by_dst[d] = spec->id;
      }
      ControlParams cp;
      cp.target_bytes_per_sec = phase_rate(p0, TrafficClass::kControl);
      sources_.push_back(std::make_unique<ControlSource>(
          sim_for(h), host, host_rng.split(1), metrics_for(h),
          std::move(flows_by_dst), cp, host_pattern));
    }

    // ---- Multimedia: admitted MPEG-4 streams with 10 ms frame budget ----
    // Static streams are sized by phase 0; later phases change the video
    // population through churn (whole streams admitted/departed), never by
    // retargeting a running stream's rate.
    if (cfg_.enable_video && phase_rate(p0, TrafficClass::kMultimedia) > 0.0) {
      const auto n_streams = static_cast<std::uint32_t>(std::lround(
          phase_rate(p0, TrafficClass::kMultimedia) / video_realized_bps_));
      Rng pick = host_rng.split(2);
      for (std::uint32_t v = 0; v < n_streams; ++v) {
        const NodeId dst = active_pattern_->pick(h, pick);
        FlowRequest req;
        req.src = h;
        req.dst = dst;
        req.tclass = TrafficClass::kMultimedia;
        req.policy = DeadlinePolicy::kFrameBudget;
        req.reserve_bw = Bandwidth::from_bytes_per_sec(video_realized_bps_);
        req.frame_budget = cfg_.video_frame_budget;
        req.use_eligible_time = cfg_.video_eligible_time;
        req.eligible_lead = cfg_.eligible_lead;
        const auto spec = admission_->admit(req);
        if (!spec) continue;  // network reservation exhausted
        host.open_flow(*spec);
        flow_src_.insert(spec->id, h);
        if (video_trace_.empty()) {
          sources_.push_back(std::make_unique<VideoSource>(
              sim_for(h), host, pick.split(100 + v), metrics_for(h), spec->id,
              cfg_.video));
        } else {
          TraceVideoParams tv;
          tv.frame_period = cfg_.video.frame_period;
          tv.start_frame = static_cast<std::size_t>(
              pick.uniform_int(0, video_trace_.size() - 1));
          sources_.push_back(std::make_unique<TraceVideoSource>(
              sim_for(h), host, pick.split(100 + v), metrics_for(h), spec->id,
              &video_trace_, tv));
        }
      }
    }

    // ---- Unregulated classes: self-similar, aggregated per class --------
    // Deadline ("guaranteed minimum") bandwidths partition the capacity the
    // regulated classes leave over, in proportion to the configured weights
    // — §3: "several aggregated flows, each one with a different bandwidth
    // to compute deadlines ... we can guarantee minimum bandwidth if we are
    // careful assigning weights". If the clocks were allowed to outrun the
    // arrival rates, every deadline would sit at ~now and the weights would
    // differentiate nothing (Fig. 4 would flatten).
    // Deadline weights are fixed at admission from the phase 0 shares;
    // later phases shift *offered* rates via retarget(), not the weights
    // (re-deriving weights would mean re-admitting every aggregate).
    const double regulated_share =
        p0.class_share[static_cast<std::size_t>(TrafficClass::kControl)] +
        p0.class_share[static_cast<std::size_t>(TrafficClass::kMultimedia)];
    const double leftover_bps =
        std::max(0.05, 1.0 - regulated_share) * cfg_.link_bw.bytes_per_sec();
    const double weight_sum =
        (cfg_.enable_best_effort ? cfg_.best_effort_weight : 0.0) +
        (cfg_.enable_background ? cfg_.background_weight : 0.0);
    const auto add_unregulated = [&](TrafficClass tc, double weight, bool enabled,
                                     std::uint64_t salt) {
      if (!enabled || peak_rate(tc) <= 0.0) return;
      std::vector<FlowId> flows_by_dst(n, kInvalidFlow);
      FlowId aggregate = kInvalidFlow;
      for (const NodeId d : peers) {
        FlowRequest req;
        req.src = h;
        req.dst = d;
        req.tclass = tc;
        req.policy = DeadlinePolicy::kVirtualClock;
        // The class's deadline weight: the "bandwidth to compute deadlines"
        // of the aggregated flow (Fig. 4 differentiation).
        req.deadline_bw =
            Bandwidth::from_bytes_per_sec(leftover_bps * weight / weight_sum);
        auto spec = admission_->admit(req);
        DQOS_ASSERT(spec.has_value());  // no reservation -> always admitted
        if (aggregate == kInvalidFlow) aggregate = spec->id;
        spec->aggregate = aggregate;
        host.open_flow(*spec);
        flow_src_.insert(spec->id, h);
        flows_by_dst[d] = spec->id;
      }
      SelfSimilarParams sp;
      sp.target_bytes_per_sec = phase_rate(p0, tc);
      sp.tclass = tc;
      sources_.push_back(std::make_unique<SelfSimilarSource>(
          sim_for(h), host, host_rng.split(salt), metrics_for(h),
          std::move(flows_by_dst), sp, host_pattern));
    };
    add_unregulated(TrafficClass::kBestEffort, cfg_.best_effort_weight,
                    cfg_.enable_best_effort, 3);
    add_unregulated(TrafficClass::kBackground, cfg_.background_weight,
                    cfg_.enable_background, 4);
  }
}

SimReport NetworkSimulator::run() {
  // The legacy single-shot entry point is now literally a one-phase
  // scenario; RunController replays the old lifecycle event-for-event.
  RunController controller(*this, Scenario::single_phase(cfg_));
  return controller.run().total;
}

void NetworkSimulator::begin_run(const Scenario& scn) {
  if (ran_) {
    throw RunError(
        "run error: this NetworkSimulator has already run; the event "
        "calendar and metric windows are single-shot — construct a fresh "
        "simulator per run (phased experiments go through RunController)");
  }
  ran_ = true;
  prepare_workload(scn);
}

void NetworkSimulator::start_sources(TimePoint stop) {
  for (const auto& src : sources_) src->start(stop);
}

void NetworkSimulator::arm_run_services(TimePoint horizon) {
  const TimePoint t0 = sim_.now();
  // Fault machinery (opt-in: schedules nothing when inactive, so the
  // default run stays bit-identical). Periodic processes are bounded by
  // the run horizon so the calendar can still drain.
  if (fault_active_) {
    if (cfg_.fault.credit_resync_window > Duration::zero()) {
      for (const auto& ch : channels_) {
        ch->enable_credit_resync(cfg_.fault.credit_resync_window, horizon);
      }
    }
    injector_->start(horizon);
    if (watchdog_) watchdog_->arm(horizon);
  }
  // The auditor opts in independently of fault injection: a clean overload
  // run still wants its conservation laws checked at every epoch.
  if (auditor_) auditor_->arm(cfg_.fault.audit_epoch, horizon);

  if (cfg_.probe_interval > Duration::zero()) {
    const TimePoint probe_end = horizon;
    const auto bins = static_cast<std::size_t>((probe_end - t0) / cfg_.probe_interval) + 1;
    queue_depth_series_ = std::make_shared<TimeSeries>(t0, cfg_.probe_interval, bins);
    injection_series_ = std::make_shared<TimeSeries>(t0, cfg_.probe_interval, bins);
    // Self-rescheduling sampler. Queue depth is a snapshot per bin;
    // injection is the byte delta since the previous sample.
    probe_fn_ = [this, probe_end] {
      const TimePoint now = sim_.now();
      std::size_t queued = 0;
      for (const auto& s : switches_) queued += s->packets_queued();
      queue_depth_series_->add(now, static_cast<double>(queued));
      std::uint64_t injected = 0;
      for (const auto& h : hosts_) injected += h->bytes_injected();
      injection_series_->add(now, static_cast<double>(injected - last_injected_bytes_));
      last_injected_bytes_ = injected;
      if (now + cfg_.probe_interval <= probe_end) {
        sim_.schedule_after(cfg_.probe_interval, [this] { probe_fn_(); });
      }
    };
    sim_.schedule_after(cfg_.probe_interval, [this] { probe_fn_(); });
  }
}

SimReport NetworkSimulator::collect_report(TimePoint t0) {
  if (watchdog_) watchdog_->final_check();

  SimReport rep;
  rep.arch = cfg_.arch;
  rep.load = cfg_.load;
  for (const TrafficClass c : all_traffic_classes()) {
    rep.classes[static_cast<std::size_t>(c)] = metrics_->report(c);
  }
  rep.order_errors = total_order_errors();
  rep.order_errors_regulated = total_order_errors_vc(kRegulatedVc);
  rep.takeovers = total_takeovers();
  rep.credit_stalls = total_credit_stalls();
  for (const auto& h : hosts_) {
    rep.out_of_order += h->out_of_order_deliveries();
    rep.best_effort_drops += h->best_effort_drops();
    rep.packets_injected += h->packets_injected();
    rep.packets_delivered += h->packets_received();
  }
  rep.events_processed =
      engine_ ? engine_->events_processed() : sim_.events_processed();
  rep.flows_admitted = admission_->admitted_flows();
  rep.flows_rejected = admission_->rejected_flows();
  rep.metrics = metrics_;

  rep.fault.active = fault_active_;
  rep.fault.injected = injector_->stats();
  for (const auto& ch : channels_) {
    rep.fault.credit_resyncs += ch->resyncs();
    rep.fault.credit_bytes_resynced += ch->resynced_bytes();
  }
  for (const auto& s : switches_) {
    rep.fault.packets_dropped_link_down += s->counters().dropped_link_down;
    rep.fault.link_down_stalls += s->counters().link_down_stalls;
  }
  for (const auto& h : hosts_) {
    rep.fault.control_retries += h->control_retries();
    rep.fault.control_retries_abandoned += h->control_retries_abandoned();
    rep.fault.shed_submissions += h->shed_submissions();
  }
  rep.fault.flows_rerouted = admission_->flows_rerouted();
  rep.fault.flows_shed = admission_->flows_shed();
  if (watchdog_) {
    rep.fault.watchdog_fired = watchdog_->fired();
    rep.fault.watchdog_report = watchdog_->report();
  }
  rep.queue_depth = queue_depth_series_;
  rep.injected_bytes = injection_series_;

  for (const auto& h : hosts_) {
    rep.degradation.expired_packets += h->expired_packets();
    rep.degradation.expired_bytes += h->expired_bytes();
    rep.degradation.flows_aborted += h->flows_aborted();
  }
  rep.degradation.frames_dropped = total_frames_dropped();
  rep.degradation.messages_refused = total_messages_refused();
  if (auditor_) {
    auditor_->audit_now("collect_report");
    rep.degradation.audits_passed = auditor_->audits_passed();
  }

  // Per-tier link utilization over the whole run.
  const double elapsed_sec = (sim_.now() - t0).sec();
  if (elapsed_sec > 0.0) {
    std::array<StreamingStats, 3> tiers;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      tiers[static_cast<std::size_t>(channel_tier_[i])].add(
          channels_[i]->busy_time().sec() / elapsed_sec);
    }
    rep.util_injection = {tiers[0].mean(), tiers[0].max()};
    rep.util_delivery = {tiers[1].mean(), tiers[1].max()};
    rep.util_fabric = {tiers[2].mean(), tiers[2].max()};
  }
  return rep;
}

void NetworkSimulator::apply_phase(const PhaseSpec& phase) {
  DQOS_EXPECTS(workload_prepared_);
  activate_pattern(phase.pattern);
  for (const auto& src : sources_) {
    // Multimedia streams are fixed-rate; their population is churn-driven.
    // Stopped sources (departed churn flows) ignore the retarget.
    if (src->tclass() == TrafficClass::kMultimedia) continue;
    // Bounded-fanout sources keep their per-host peer sets across phases —
    // only flows that were opened can carry traffic, so handing them the
    // phase's full-fabric pattern would pick destinations with no flow.
    const DestinationPattern* pat =
        bounded_fanout() > 0 ? nullptr : active_pattern_;
    src->retarget(phase_rate(phase, src->tclass()), pat);
  }
}

std::optional<FlowId> NetworkSimulator::open_video_flow(NodeId src, Rng rng,
                                                        TimePoint stop) {
  DQOS_EXPECTS(workload_prepared_);
  DQOS_EXPECTS(cfg_.enable_video);
  DQOS_EXPECTS(src < topo_->num_hosts());
  const NodeId dst = active_pattern_->pick(src, rng);
  FlowRequest req;
  req.src = src;
  req.dst = dst;
  req.tclass = TrafficClass::kMultimedia;
  req.policy = DeadlinePolicy::kFrameBudget;
  req.reserve_bw = Bandwidth::from_bytes_per_sec(video_realized_bps_);
  req.frame_budget = cfg_.video_frame_budget;
  req.use_eligible_time = cfg_.video_eligible_time;
  req.eligible_lead = cfg_.eligible_lead;
  const auto spec = admission_->admit(req);
  if (!spec) return std::nullopt;  // mid-run rejection: no headroom left
  Host& host = *hosts_[src];
  host.open_flow(*spec);
  flow_src_.insert(spec->id, src);
  if (video_trace_.empty()) {
    sources_.push_back(std::make_unique<VideoSource>(
        sim_for(src), host, rng.split(1), metrics_for(src), spec->id,
        cfg_.video));
  } else {
    TraceVideoParams tv;
    tv.frame_period = cfg_.video.frame_period;
    tv.start_frame = static_cast<std::size_t>(
        rng.uniform_int(0, video_trace_.size() - 1));
    sources_.push_back(std::make_unique<TraceVideoSource>(
        sim_for(src), host, rng.split(1), metrics_for(src), spec->id,
        &video_trace_, tv));
  }
  churn_sources_.insert(spec->id, sources_.back().get());
  sources_.back()->start(stop);
  return spec->id;
}

void NetworkSimulator::close_video_flow(FlowId id) {
  // Order matters: silence the source before retiring its host flow
  // (submitting to a retired flow is a contract violation), and release
  // the reservation only if the fault path hasn't already shed it.
  churn_sources_.at(id)->stop();
  churn_sources_.erase(id);
  if (admission_->has_flow(id)) admission_->release(id);
  const NodeId src = flow_src_.at(id);
  const NodeId dst = hosts_[src]->retire_flow(id);
  flow_src_.erase(id);
  // Receive-side reclamation: without it, churn ratchets the destination's
  // per-flow rx tracking for the rest of the run. Safe here — churn events
  // run serially (control calendar under the sharded engine), so touching
  // the destination host cannot race a shard window.
  hosts_[dst]->purge_rx_flow(id);
}

std::uint64_t NetworkSimulator::close_remaining_churn_flows() {
  const std::vector<FlowId> ids = churn_sources_.ids_ascending();
  for (const FlowId id : ids) close_video_flow(id);
  return ids.size();
}

void NetworkSimulator::retire_shed_flow(FlowId id, NodeId src) {
  if (churn_sources_.contains(id)) {
    close_video_flow(id);  // reservation already gone: release is guarded
    return;
  }
  DQOS_EXPECTS(src < hosts_.size());
  hosts_[src]->close_flow(id);
  if (admission_->has_flow(id)) admission_->release(id);
}

void NetworkSimulator::on_flow_aborted(FlowId id) {
  // Inside a parallel window only the aborting host's shard may be touched:
  // silence its source now (local state) and defer the admission-side
  // release — shared, serial-only state — to the barrier, sequenced by the
  // abort's position in the merged fire order.
  if (engine_ != nullptr && *engine_window_) {
    if (TrafficSource** src = churn_sources_.find(id)) (*src)->stop();
    DeferredEffect e;
    e.kind = DeferredEffect::Kind::kFlowAborted;
    e.id = id;
    engine_->log(part_.shard_of(flow_src_.at(id))).defer(e);
    return;
  }
  finish_flow_abort(id);
}

void NetworkSimulator::finish_flow_abort(FlowId id) {
  // The host has already closed the flow and purged its queues; free its
  // reservation so the bandwidth helps flows still meeting deadlines.
  if (churn_sources_.contains(id)) {
    close_video_flow(id);  // stops the source, releases, retires
    return;
  }
  if (admission_->has_flow(id)) admission_->release(id);
  // Static sources keep producing into the closed flow; every refused
  // submission is counted (shed_submissions) as degradation.
}

std::uint64_t NetworkSimulator::total_frames_dropped() const {
  std::uint64_t sum = 0;
  for (const auto& s : sources_) sum += s->frames_dropped();
  return sum;
}

std::uint64_t NetworkSimulator::total_messages_refused() const {
  std::uint64_t sum = 0;
  for (const auto& s : sources_) sum += s->messages_refused();
  return sum;
}

std::uint64_t NetworkSimulator::total_order_errors() const {
  std::uint64_t sum = 0;
  for (const auto& s : switches_) sum += s->order_errors();
  return sum;
}

std::uint64_t NetworkSimulator::total_order_errors_vc(VcId vc) const {
  std::uint64_t sum = 0;
  for (const auto& s : switches_) sum += s->order_errors_vc(vc);
  return sum;
}

std::uint64_t NetworkSimulator::total_takeovers() const {
  std::uint64_t sum = 0;
  for (const auto& s : switches_) sum += s->takeovers();
  return sum;
}

std::uint64_t NetworkSimulator::total_credit_stalls() const {
  std::uint64_t sum = 0;
  for (const auto& s : switches_) sum += s->counters().credit_stalls;
  return sum;
}

}  // namespace dqos
