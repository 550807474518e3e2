/// \file network_simulator.hpp
/// The top-level facade: builds the full platform (topology, switches,
/// channels, hosts, admission control) from a SimConfig and exposes the
/// run lifecycle as narrow verbs (prepare_workload, start_sources,
/// arm_run_services, apply_phase, open/close_video_flow, collect_report)
/// that core/run_controller.hpp sequences. run() is the one-call legacy
/// entry point: it executes a single-phase scenario, bit-identical to the
/// pre-scenario-engine behavior.
///
/// Typical use (see examples/quickstart.cpp):
///
///   SimConfig cfg = SimConfig::paper(SwitchArch::kAdvanced2Vc, 1.0);
///   NetworkSimulator net(cfg);
///   SimReport rep = net.run();
///   printf("control latency: %.1f us\n",
///          rep.classes[0].avg_packet_latency_us);
///
/// For phased runs with load shifts and flow churn, build a Scenario and
/// drive it through RunController instead (core/scenario.hpp).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/scenario.hpp"
#include "fault/auditor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/watchdog.hpp"
#include "host/host.hpp"
#include "qos/admission.hpp"
#include "sim/shard_executor.hpp"
#include "stats/metrics.hpp"
#include "stats/timeseries.hpp"
#include "switchfab/switch.hpp"
#include "topo/partition.hpp"
#include "topo/topology.hpp"
#include "traffic/patterns.hpp"
#include "traffic/source.hpp"
#include "util/dense_flow_table.hpp"

namespace dqos {

/// Results of one run.
struct SimReport {
  SwitchArch arch = SwitchArch::kAdvanced2Vc;
  double load = 0.0;
  std::array<ClassReport, kNumTrafficClasses> classes;

  // network-level diagnostics
  std::uint64_t order_errors = 0;     ///< across all switch queues
  std::uint64_t order_errors_regulated = 0;  ///< on VC0 only
  std::uint64_t takeovers = 0;        ///< take-over enqueues (Advanced)
  std::uint64_t credit_stalls = 0;
  std::uint64_t out_of_order = 0;     ///< must be 0 (paper appendix)
  std::uint64_t best_effort_drops = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t flows_admitted = 0;
  std::uint64_t flows_rejected = 0;

  /// Full latency distributions for CDF curves (shared with the collector).
  std::shared_ptr<const MetricsCollector> metrics;

  /// Link utilization by tier (busy fraction of the whole run):
  /// injection = host->switch, delivery = switch->host, fabric =
  /// switch<->switch. `max` is the hottest single link of the tier.
  struct TierUtilization {
    double mean = 0.0;
    double max = 0.0;
  };
  TierUtilization util_injection, util_delivery, util_fabric;

  /// Probe series (null unless SimConfig::probe_interval > 0):
  /// per-bin snapshots of packets queued inside switches, and per-bin bytes
  /// injected by all hosts (burstiness of the offered aggregate).
  std::shared_ptr<const TimeSeries> queue_depth;
  std::shared_ptr<const TimeSeries> injected_bytes;

  /// Fault-injection outcome (all-zero unless faults were configured or
  /// scripted through NetworkSimulator::fault_injector()).
  struct FaultReport {
    bool active = false;             ///< fault machinery was armed this run
    FaultStats injected;             ///< what the injector actually did
    std::uint64_t credit_resyncs = 0;
    std::uint64_t credit_bytes_resynced = 0;
    std::uint64_t packets_dropped_link_down = 0;
    std::uint64_t link_down_stalls = 0;
    std::uint64_t control_retries = 0;
    std::uint64_t control_retries_abandoned = 0;
    std::uint64_t shed_submissions = 0;
    std::uint64_t flows_rerouted = 0;
    std::uint64_t flows_shed = 0;
    bool watchdog_fired = false;
    std::string watchdog_report;     ///< per-switch diagnostics when fired
  };
  FaultReport fault;

  /// Overload-degradation outcome (all-zero unless expiry/backoff/auditing
  /// was configured — the features schedule nothing when off).
  struct DegradationReport {
    std::uint64_t expired_packets = 0;   ///< dropped already-late at the NIC
    std::uint64_t expired_bytes = 0;
    std::uint64_t flows_aborted = 0;     ///< expiry ratio over the threshold
    std::uint64_t frames_dropped = 0;    ///< late B frames withheld at source
    std::uint64_t messages_refused = 0;  ///< NIC refused (cap/policer/shed)
    std::uint64_t admit_retries = 0;         ///< backoff re-admission attempts
    std::uint64_t admit_retries_exhausted = 0;  ///< gave up after max retries
    std::uint64_t flows_readmitted = 0;  ///< retries that eventually succeeded
    std::uint64_t flows_shed_highwater = 0;  ///< load-shed at the high-water mark
    std::uint64_t audits_passed = 0;     ///< invariant audits that held
  };
  DegradationReport degradation;

  [[nodiscard]] const ClassReport& of(TrafficClass c) const {
    return classes[static_cast<std::size_t>(c)];
  }
};

class NetworkSimulator {
 public:
  /// Builds the entire platform; ready to run.
  explicit NetworkSimulator(const SimConfig& cfg);
  ~NetworkSimulator();
  NetworkSimulator(const NetworkSimulator&) = delete;
  NetworkSimulator& operator=(const NetworkSimulator&) = delete;

  /// Starts traffic, runs warm-up + measurement + drain, returns the report.
  /// Equivalent to driving Scenario::single_phase(config()) through a
  /// RunController. A second call throws RunError (the event calendar and
  /// metric windows are single-shot; build a fresh simulator per run).
  SimReport run();

  // --- scenario-engine verbs (sequenced by RunController) --------------
  /// Admits the Table 1 workload and creates its sources. Idempotent (the
  /// first call wins), and implied by run()/begin_run() — call it
  /// explicitly only to inspect or adjust flows before the run starts. The
  /// parameterless overload prepares the legacy single-phase workload; the
  /// Scenario overload sizes sources for phase 0 (later phases retarget
  /// them mid-run).
  void prepare_workload();
  void prepare_workload(const Scenario& scn);
  /// Marks the run started (throws RunError when called twice) and
  /// prepares `scn`'s workload if no prepare_workload() call came first.
  void begin_run(const Scenario& scn);
  /// Starts every source; each keeps generating until `stop`.
  void start_sources(TimePoint stop);
  /// Arms the opt-in run services — fault injection, credit resync,
  /// watchdog, probe sampling — exactly as the legacy run() did, bounded
  /// by the drain horizon so the calendar can empty.
  void arm_run_services(TimePoint horizon);
  /// Runs the watchdog final check and assembles the SimReport. Must be
  /// called before any teardown releases admission state (flows_admitted
  /// reads the live ledger).
  [[nodiscard]] SimReport collect_report(TimePoint t0);
  /// Applies a phase's load/shares/pattern to the running sources via
  /// retarget(). The multimedia population is churn-driven (admitted and
  /// departed as whole streams), not retargeted.
  void apply_phase(const PhaseSpec& phase);
  /// Mid-run churn: admits and starts one video stream from `src` toward
  /// a pattern-drawn destination, at the same per-stream rate as the
  /// static workload. nullopt = admission rejected (reservation
  /// exhausted). The stream generates until `stop` or close_video_flow().
  std::optional<FlowId> open_video_flow(NodeId src, Rng rng, TimePoint stop);
  /// Departs a churn flow: stops its source, releases its reservation (if
  /// the fault path hasn't already shed it) and retires the flow from its
  /// host. Packets already queued drain and deliver normally.
  void close_video_flow(FlowId id);
  /// Teardown sweep: close_video_flow() on every churn flow still open,
  /// in flow-id order. Returns how many were closed.
  std::uint64_t close_remaining_churn_flows();
  /// Retires a flow shed by the high-water load shedder (the shedder has
  /// already erased its reservation): churn flows fully depart — source
  /// stopped, host flow retired — while static flows merely close at the
  /// host (their sources keep producing; every refused submission is
  /// counted as shed degradation).
  void retire_shed_flow(FlowId id, NodeId src);

  /// Runs the event calendar(s) up to and including `t`: the sharded
  /// engine when cfg.shards > 1, else the plain serial Simulator. The only
  /// clock-advancing verb RunController uses — output is bit-identical
  /// either way (DESIGN.md §12).
  void run_calendar_until(TimePoint t);

  // --- component access for tests, examples and custom experiments ---
  /// The control calendar: run orchestration (phases, churn, faults,
  /// audits, probes) schedules here in every mode.
  [[nodiscard]] Simulator& sim() { return sim_; }
  /// Null unless the run is sharded (cfg.shards > 1 after clamping).
  [[nodiscard]] ShardExecutor* shard_engine() { return engine_.get(); }
  /// Wires `tracer` into every host, switch and the fault injector; it
  /// must outlive the run. Throws ConfigError (naming --shards=1) when the
  /// run is sharded: the tracer is not shard-safe.
  void attach_tracer(PacketTracer& tracer);
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] AdmissionController& admission() { return *admission_; }
  [[nodiscard]] MetricsCollector& metrics() { return *metrics_; }
  [[nodiscard]] Host& host(std::uint32_t i) { return *hosts_.at(i); }
  [[nodiscard]] Switch& fabric_switch(std::uint32_t i) { return *switches_.at(i); }
  [[nodiscard]] std::uint32_t num_hosts() const {
    return static_cast<std::uint32_t>(hosts_.size());
  }
  [[nodiscard]] std::uint32_t num_switches() const {
    return static_cast<std::uint32_t>(switches_.size());
  }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }

  /// Fault scripting interface (tests pin exact faults at exact instants).
  /// Scripted faults work even when SimConfig::fault is all-default, but
  /// recovery machinery (resync, retry, watchdog) is armed only when
  /// cfg.fault.enabled is set or a random fault rate is nonzero.
  [[nodiscard]] FaultInjector& fault_injector() { return *injector_; }
  /// Null unless the fault machinery is armed with a watchdog interval.
  [[nodiscard]] DeadlockWatchdog* watchdog() { return watchdog_.get(); }
  /// Null unless FaultConfig::audit_epoch > 0.
  [[nodiscard]] InvariantAuditor* auditor() { return auditor_.get(); }
  /// The packet pool (auditor tests plant custody leaks through this).
  [[nodiscard]] PacketPool& packet_pool() { return pool_; }
  /// Channels in construction order (auditor tests plant credit corruption
  /// through Channel::debug_corrupt_credits()).
  [[nodiscard]] Channel& channel(std::size_t i) { return *channels_.at(i); }
  [[nodiscard]] std::size_t num_channels() const { return channels_.size(); }
  /// Sum of frames_dropped / messages_refused over every source.
  [[nodiscard]] std::uint64_t total_frames_dropped() const;
  [[nodiscard]] std::uint64_t total_messages_refused() const;

  /// Sum of order errors / take-overs / credit stalls over all switches.
  [[nodiscard]] std::uint64_t total_order_errors() const;
  [[nodiscard]] std::uint64_t total_order_errors_vc(VcId vc) const;
  [[nodiscard]] std::uint64_t total_takeovers() const;
  [[nodiscard]] std::uint64_t total_credit_stalls() const;

 private:
  void build_topology();
  /// Partitions the fabric and builds the sharded engine, per-shard pools
  /// and metric relays (no-op when cfg.shards clamps to 1). Must run before
  /// build_nodes: every node lives on the shard calendar it creates.
  void build_shards();
  void build_nodes();
  void build_channels();

  /// The calendar a node's components live on (its shard's, or sim_).
  [[nodiscard]] Simulator& sim_for(NodeId n);
  /// The collector a node's components report to (its shard's relay, or
  /// the primary).
  [[nodiscard]] MetricsCollector* metrics_for(NodeId n);
  [[nodiscard]] PacketPool& pool_for(NodeId n);
  /// Barrier hook: folds cross-shard pool frees back to their pools.
  void on_shard_barrier();
  /// The serial tail of a flow abort (ledger release, host retirement);
  /// runs immediately in serial mode, at the barrier replay when the abort
  /// fired inside a window.
  void finish_flow_abort(FlowId id);

  /// Per-class offered bandwidth (bytes/s) under a phase's load and shares.
  [[nodiscard]] double phase_rate(const PhaseSpec& ph, TrafficClass c) const;
  /// The effective per-host peer bound: cfg.fanout when it actually binds
  /// (0 < fanout < N-1), else 0 = legacy all-to-all.
  [[nodiscard]] std::uint32_t bounded_fanout() const;
  /// Points active_pattern_ at (a pattern equal to) `params`, instantiating
  /// a new one only when it differs from the current pattern.
  void activate_pattern(const PatternParams& params);
  /// Host reported a flow aborted by the expiry-ratio threshold: release
  /// its reservation and silence its source (churn flows fully depart).
  void on_flow_aborted(FlowId id);

  SimConfig cfg_;
  Rng rng_;
  // Destruction order matters: the pools must outlive every queued packet —
  // including packets captured in pending simulator events (the control
  // calendar's and the engine-owned shard calendars') — so the pools are
  // declared before (destroyed after) the simulator, the engine and all
  // node objects.
  PacketPool pool_;
  std::vector<std::unique_ptr<PacketPool>> shard_pools_;
  Simulator sim_;  ///< the control calendar (the only one when serial)
  /// Sharded engine (null when serial). Owns the shard calendars, so it is
  /// declared after sim_ (its control reference) and before every component.
  std::unique_ptr<ShardExecutor> engine_;
  Partition part_;  ///< node -> shard map (empty when serial)
  const bool* engine_window_ = nullptr;  ///< engine's window-active flag
  std::unique_ptr<Topology> topo_;
  std::shared_ptr<MetricsCollector> metrics_;
  /// Per-shard relay collectors (defer-or-forward to metrics_).
  std::vector<std::unique_ptr<MetricsCollector>> shard_metrics_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<DestinationPattern> pattern_;
  /// Patterns instantiated for phases whose params differ from the
  /// config's (apply_phase); active_pattern_ points into pattern_ or here.
  std::vector<std::unique_ptr<DestinationPattern>> extra_patterns_;
  const DestinationPattern* active_pattern_ = nullptr;
  PatternParams active_pattern_params_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Channel>> channels_;
  enum class LinkTier : std::uint8_t { kInjection, kDelivery, kFabric };
  std::vector<LinkTier> channel_tier_;  ///< parallel to channels_
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<DeadlockWatchdog> watchdog_;
  std::unique_ptr<InvariantAuditor> auditor_;
  DenseFlowTable<NodeId> flow_src_;  ///< ack routing (retries)
  /// Churn-created flows still open, keyed to their sources (owned by
  /// sources_; pointers stay valid because sources_ only grows mid-run).
  DenseFlowTable<TrafficSource*> churn_sources_;
  /// Per-host bounded peer sets (cfg.fanout > 0): one SubsetPattern per
  /// host, shared by its control and unregulated sources.
  std::vector<std::unique_ptr<DestinationPattern>> peer_patterns_;
  bool fault_active_ = false;
  bool workload_prepared_ = false;
  /// Per-stream video rate (bytes/s) shared by the static population and
  /// churn admissions; computed once in prepare_workload.
  double video_realized_bps_ = 0.0;
  std::vector<std::uint32_t> video_trace_;  ///< loaded frame sizes (optional)
  std::shared_ptr<TimeSeries> queue_depth_series_;
  std::shared_ptr<TimeSeries> injection_series_;
  std::function<void()> probe_fn_;
  std::uint64_t last_injected_bytes_ = 0;
  bool ran_ = false;
};

}  // namespace dqos
