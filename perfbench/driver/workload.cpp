#include "workload.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "alloc_count.hpp"
#include "core/config_io.hpp"
#include "core/network_simulator.hpp"
#include "core/run_controller.hpp"

namespace perfbench {

using namespace dqos;

Workload load_workload(const ArgParser& cli) {
  ArgParser args;
  if (const auto file = cli.get("config")) {
    if (!args.load_file(*file)) {
      throw ConfigError("cannot read config file '" + *file + "'");
    }
  }
  for (const std::string& key : cli.keys()) {
    if (key != "config") args.set(key, *cli.get(key), cli.origin(key));
  }
  require_known_keys(args, {"config", "trace"});
  Workload w;
  w.cfg = config_from_args(args);
  const std::optional<Scenario> scn = scenario_from_args(args, w.cfg);
  w.scn = scn ? *scn : Scenario::single_phase(w.cfg);
  return w;
}

namespace {

/// Canonical text of everything the simulation reports: per-class and
/// per-phase results, switch/admission/degradation/fault counts. Doubles
/// keep all 17 digits, so any change in the simulated output shows.
class Fingerprint {
 public:
  void add(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", key, v);
    text_ += buf;
  }
  void add(const char* key, std::uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%llu;", key,
                  static_cast<unsigned long long>(v));
    text_ += buf;
  }
  void add_class(const char* prefix, const ClassReport& r) {
    text_ += prefix;
    add("packets", r.packets);
    add("messages", r.messages);
    add("avg_us", r.avg_packet_latency_us);
    add("p99_us", r.p99_packet_latency_us);
    add("max_us", r.max_packet_latency_us);
    add("jitter_us", r.jitter_us);
    add("tput", r.throughput_bytes_per_sec);
    add("msg_us", r.avg_message_latency_us);
    add("miss", r.deadline_miss_rate);
    add("expired", r.expired_packets);
  }
  /// FNV-1a over the text, as 16 hex digits.
  [[nodiscard]] std::string hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text_) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }

 private:
  std::string text_;
};

std::string fingerprint(const ScenarioReport& srep) {
  const SimReport& r = srep.total;
  Fingerprint f;
  for (const TrafficClass c : all_traffic_classes()) {
    f.add_class(std::string(to_string(c)).c_str(), r.of(c));
  }
  f.add("order_errors", r.order_errors);
  f.add("order_errors_vc0", r.order_errors_regulated);
  f.add("takeovers", r.takeovers);
  f.add("credit_stalls", r.credit_stalls);
  f.add("out_of_order", r.out_of_order);
  f.add("be_drops", r.best_effort_drops);
  f.add("injected", r.packets_injected);
  f.add("delivered", r.packets_delivered);
  f.add("events", r.events_processed);
  f.add("flows_admitted", r.flows_admitted);
  f.add("flows_rejected", r.flows_rejected);
  const auto& d = r.degradation;
  f.add("expired", d.expired_packets);
  f.add("aborted", d.flows_aborted);
  f.add("frames_dropped", d.frames_dropped);
  f.add("refused", d.messages_refused);
  f.add("retries", d.admit_retries);
  f.add("readmitted", d.flows_readmitted);
  f.add("shed_highwater", d.flows_shed_highwater);
  f.add("audits", d.audits_passed);
  f.add("fault_dropped", r.fault.packets_dropped_link_down);
  f.add("control_retries", r.fault.control_retries);
  f.add("shed_submissions", r.fault.shed_submissions);
  for (const PhaseReport& ph : srep.phases) {
    f.add("phase", static_cast<std::uint64_t>(ph.index));
    for (const TrafficClass c : all_traffic_classes()) {
      f.add_class(std::string(to_string(c)).c_str(), ph.of(c));
    }
    f.add("churn_arrivals", ph.churn_arrivals);
    f.add("churn_rejected", ph.churn_rejected);
    f.add("churn_departures", ph.churn_departures);
  }
  f.add("reserved_after", srep.reserved_bps_after_teardown);
  f.add("released", srep.flows_released);
  return f.hash();
}

/// Per-thread CPU consumed between two snapshots: the main thread's and
/// everyone else's (the shard workers), plus system time over all threads.
struct ThreadDelta {
  double worker_cpu_s = 0.0;
  double sys_s = 0.0;
};

ThreadDelta thread_delta(const std::vector<ThreadCpu>& before,
                         const std::vector<ThreadCpu>& after) {
  std::map<long, ThreadCpu> base;
  for (const ThreadCpu& t : before) base[t.tid] = t;
  const long main_tid = static_cast<long>(getpid());
  ThreadDelta d;
  for (const ThreadCpu& t : after) {
    const ThreadCpu b = base.count(t.tid) ? base[t.tid] : ThreadCpu{};
    if (t.tid != main_tid) d.worker_cpu_s += t.cpu_s - b.cpu_s;
    d.sys_s += t.sys_s - b.sys_s;
  }
  return d;
}

}  // namespace

std::uint64_t run_op(const Workload& w, SpanLog& log, JsonObject& out) {
  std::unique_ptr<NetworkSimulator> net;
  ScopedSpan op_span(log, "op");
  // Set-up is repeated, each platform discarded but the last, until
  // kSetupBudgetS seconds of set-ups have been spent; setup_s is their
  // mean. One short set-up runs entirely fast or entirely slow on a shared
  // host, so the median over operations of single samples jumps between
  // the two; a mean over a quarter second moves smoothly, like run_s.
  // Only the first, cold set-up is traced.
  constexpr double kSetupBudgetS = 0.25;
  SpanLog untraced(false);
  double spent = 0.0;
  std::uint64_t setups = 0;
  double ctor_s = 0.0;
  double prepare_s = 0.0;
  do {
    SpanLog& l = setups == 0 ? log : untraced;
    net.reset();
    ScopedSpan ctor(l, "core.ctor");
    net = std::make_unique<NetworkSimulator>(w.cfg);
    const double c = ctor.end();
    ScopedSpan prep(l, "core.prepare");
    // The same call RunController::run makes through begin_run(); making
    // it here first only separates set-up time from run time.
    net->prepare_workload();
    const double p = prep.end();
    if (setups++ == 0) {
      ctor_s = c;
      prepare_s = p;
    }
    spent += c + p;
  } while (spent < kSetupBudgetS);

  RunController controller(*net, w.scn);
  const std::vector<ThreadCpu> threads0 = thread_cpu();
  const double cpu0 = process_cpu_s();
  const std::uint64_t allocs0 = allocations();
  ScopedSpan run(log, "core.run");
  const ScenarioReport srep = controller.run();
  const double run_s = run.end();
  const std::uint64_t allocs = allocations() - allocs0;
  const double cpu_s = process_cpu_s() - cpu0;
  const ThreadDelta threads = thread_delta(threads0, thread_cpu());
  const SimReport& rep = srep.total;

  double audit_ms = 0.0;
  InvariantAuditor* auditor = net->auditor();
  const std::uint64_t audits = rep.degradation.audits_passed;
  if (auditor != nullptr && log.enabled()) {
    ScopedSpan audit(log, "fault.audit_now");
    auditor->audit_now("benchmark post-run audit");
    audit_ms = audit.end() * 1e3;
  }

  out.put("ctor_s", ctor_s);
  out.put("prepare_s", prepare_s);
  out.put("setup_s", spent / static_cast<double>(setups));
  out.put("run_s", run_s);
  out.put("cpu_s", cpu_s);
  out.put("events", rep.events_processed);
  out.put("events_per_s", static_cast<double>(rep.events_processed) / run_s);
  out.put("sim_ctrl_p99_us",
          rep.of(TrafficClass::kControl).p99_packet_latency_us);
  out.put("sim_mm_miss_rate",
          rep.of(TrafficClass::kMultimedia).deadline_miss_rate);
  out.put("fingerprint", fingerprint(srep));

  // Correctness inputs (checked by run.py).
  out.put("out_of_order", rep.out_of_order);
  out.put("watchdog_fired", rep.fault.watchdog_fired);
  out.put("auditor_armed", auditor != nullptr);
  out.put("audits_passed", audits);
  out.put("teardown_checked", w.scn.multi_phase() || w.scn.has_churn());
  out.put("reserved_bps_after_teardown", srep.reserved_bps_after_teardown);

  // Per-layer counts, from the report and the layers' public getters.
  ShardExecutor* engine = net->shard_engine();
  const std::uint64_t windows = engine ? engine->windows_run() : 0;
  out.put("shard.windows", windows);
  out.put("shard.instants", engine ? engine->instants_run() : 0);
  out.put("shard.cross_msgs", engine ? engine->cross_messages() : 0);
  out.put("shard.events_per_window",
          windows ? static_cast<double>(rep.events_processed) /
                        static_cast<double>(windows)
                  : 0.0);
  out.put("shard.threaded", engine != nullptr && engine->threaded());
  out.put("shard.sys_s", threads.sys_s);
  out.put("shard.worker_cpu_s", threads.worker_cpu_s);
  out.put("switchfab.order_errors", rep.order_errors);
  out.put("switchfab.takeovers", rep.takeovers);
  out.put("switchfab.credit_stalls", rep.credit_stalls);
  out.put("host.packets_injected", rep.packets_injected);
  out.put("host.expired_packets", rep.degradation.expired_packets);
  out.put("host.shed_submissions", rep.fault.shed_submissions);
  out.put("qos.flows_admitted", rep.flows_admitted);
  out.put("qos.flows_rejected", rep.flows_rejected);
  out.put("qos.admit_retries", rep.degradation.admit_retries);
  out.put("qos.flows_shed", net->admission().flows_shed());
  out.put("proto.allocs_per_event",
          static_cast<double>(allocs) /
              static_cast<double>(rep.events_processed));
  const PacketPool& pool = net->packet_pool();
  out.put("proto.pool_recycle_ratio",
          pool.allocated_total()
              ? static_cast<double>(pool.recycled_total()) /
                    static_cast<double>(pool.allocated_total())
              : 0.0);
  out.put("traffic.frames_dropped", rep.degradation.frames_dropped);
  out.put("traffic.messages_refused", rep.degradation.messages_refused);
  out.put("fault.audits_passed", audits);
  out.put("fault.audit_ms", audit_ms);

  net.reset();  // joins the shard workers before the process exits
  op_span.end();
  out.put("peak_rss_mb", peak_rss_mb());
  return rep.events_processed;
}

}  // namespace perfbench
