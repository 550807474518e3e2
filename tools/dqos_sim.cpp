/// \file dqos_sim.cpp
/// The dqos command-line simulator: configure any platform/workload the
/// library supports, run it, and print (or export) the per-class QoS
/// report.
///
///   dqos_sim --arch=advanced --load=1.0 --leaves=16 --hosts-per-leaf=8
///   dqos_sim --config=run.cfg                 # same keys from a file
///   dqos_sim --scenario=churn.cfg             # phased run with flow churn
///   dqos_sim --dump-config                    # print effective config
///   dqos_sim --csv=out.csv                    # machine-readable report
///
/// See src/core/config_io.hpp for the full key reference; `[phase.N]`
/// sections (inline in --config or in a separate --scenario file) turn the
/// run into a phased scenario executed by RunController.
#include <cstdio>
#include <cstring>

#include "core/config_io.hpp"
#include "core/network_simulator.hpp"
#include "core/run_controller.hpp"
#include "trace/tracer.hpp"
#include "util/table.hpp"

using namespace dqos;

namespace {

void print_usage() {
  std::puts(
      "usage: dqos_sim [--config=FILE] [--scenario=FILE]\n"
      "                [--arch=traditional|ideal|simple|advanced]\n"
      "                [--topology=clos|kary|single] [--load=F] [--seed=N]\n"
      "                [--leaves=N --hosts-per-leaf=N --spines=N]\n"
      "                [--measure-ms=N] [--csv=FILE] [--dump-config]\n"
      "                [--fault-inject --fault-link-down-per-sec=F\n"
      "                 --fault-credit-loss-per-sec=F --watchdog-ms=N] ...\n"
      "full key reference: src/core/config_io.hpp ([phase.N] sections make\n"
      "the run a phased scenario with optional flow churn)");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  // Config file first (if any), then the scenario file, CLI overrides last.
  ArgParser cli(argc, argv);
  if (const auto cfg_file = cli.get("config")) {
    if (!args.load_file(*cfg_file)) {
      std::fprintf(stderr, "dqos_sim: cannot read config file '%s'\n",
                   cfg_file->c_str());
      return 2;
    }
  }
  if (const auto scn_file = cli.get("scenario")) {
    if (!args.load_file(*scn_file)) {
      std::fprintf(stderr, "dqos_sim: cannot read scenario file '%s'\n",
                   scn_file->c_str());
      return 2;
    }
  }
  args.parse(argc, argv);
  if (args.has("help")) {
    print_usage();
    return 0;
  }

  SimConfig cfg;
  std::optional<Scenario> scn;
  try {
    require_known_keys(args,
                       {"config", "scenario", "help", "dump-config", "csv",
                        "trace", "trace-cap"});
    cfg = config_from_args(args);
    scn = scenario_from_args(args, cfg);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "dqos_sim: %s\n", e.what());
    return 2;
  }
  if (args.get_bool("dump-config", false)) {
    std::fputs(config_to_string(cfg).c_str(), stdout);
    return 0;
  }

  std::fprintf(stderr, "dqos_sim: %u hosts, %s, load %.2f, seed %llu\n",
               cfg.num_hosts(), std::string(to_string(cfg.arch)).c_str(), cfg.load,
               static_cast<unsigned long long>(cfg.seed));

  NetworkSimulator net(cfg);
  ShardExecutor* const engine = net.shard_engine();
  std::unique_ptr<PacketTracer> tracer;
  if (args.has("trace")) {
    tracer = std::make_unique<PacketTracer>(
        static_cast<std::size_t>(args.get_int("trace-cap", 1 << 20)));
    try {
      net.attach_tracer(*tracer);
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "dqos_sim: %s\n", e.what());
      return 2;
    }
  }
  ScenarioReport srep;
  try {
    if (scn) {
      RunController controller(net, *scn);
      srep = controller.run();
    } else {
      srep.total = net.run();
    }
  } catch (const AuditError& e) {
    // An invariant audit failed mid-run: print the diagnosis and the full
    // platform state dump the auditor captured at the failing epoch.
    std::fprintf(stderr, "dqos_sim: %s\n%s", e.what(), e.dump().c_str());
    return 2;
  } catch (const DqosError& e) {  // RunError, ConfigError, ...
    std::fprintf(stderr, "dqos_sim: %s\n", e.what());
    return 2;
  }
  const SimReport& rep = srep.total;

  TableWriter table({"class", "packets", "messages", "avg lat [us]", "p99 [us]",
                     "max [us]", "jitter [us]", "tput [MB/s]", "offered [MB/s]",
                     "msg lat [ms]"});
  for (const TrafficClass c : all_traffic_classes()) {
    const ClassReport& r = rep.of(c);
    table.row({std::string(to_string(c)), TableWriter::num(r.packets),
               TableWriter::num(r.messages),
               TableWriter::num(r.avg_packet_latency_us, 1),
               TableWriter::num(r.p99_packet_latency_us, 1),
               TableWriter::num(r.max_packet_latency_us, 1),
               TableWriter::num(r.jitter_us, 1),
               TableWriter::num(r.throughput_bytes_per_sec / 1e6, 1),
               TableWriter::num(r.offered_bytes_per_sec / 1e6, 1),
               TableWriter::num(r.avg_message_latency_us / 1e3, 3)});
  }
  table.print(stdout);
  std::printf("\norder errors: %llu (VC0: %llu)  takeovers: %llu  "
              "credit stalls: %llu\n",
              static_cast<unsigned long long>(rep.order_errors),
              static_cast<unsigned long long>(rep.order_errors_regulated),
              static_cast<unsigned long long>(rep.takeovers),
              static_cast<unsigned long long>(rep.credit_stalls));
  std::printf("packets: injected %llu, delivered %llu, out-of-order %llu, "
              "BE drops %llu\n",
              static_cast<unsigned long long>(rep.packets_injected),
              static_cast<unsigned long long>(rep.packets_delivered),
              static_cast<unsigned long long>(rep.out_of_order),
              static_cast<unsigned long long>(rep.best_effort_drops));
  std::printf("link utilization (mean/max): injection %.2f/%.2f, fabric "
              "%.2f/%.2f, delivery %.2f/%.2f\n",
              rep.util_injection.mean, rep.util_injection.max,
              rep.util_fabric.mean, rep.util_fabric.max,
              rep.util_delivery.mean, rep.util_delivery.max);
  std::printf("flows: %llu admitted, %llu rejected; events: %llu\n",
              static_cast<unsigned long long>(rep.flows_admitted),
              static_cast<unsigned long long>(rep.flows_rejected),
              static_cast<unsigned long long>(rep.events_processed));
  if (engine != nullptr) {
    const std::uint64_t windows = engine->windows_run();
    std::printf("shards: %u (%s), %llu windows, %llu serial instants, "
                "%llu cross-shard messages, %.1f events/window\n",
                engine->num_shards(),
                engine->threaded() ? "threaded" : "inline",
                static_cast<unsigned long long>(windows),
                static_cast<unsigned long long>(engine->instants_run()),
                static_cast<unsigned long long>(engine->cross_messages()),
                windows ? static_cast<double>(rep.events_processed) /
                              static_cast<double>(windows)
                        : 0.0);
  }

  if (scn) {
    for (const PhaseReport& ph : srep.phases) {
      std::printf("\nphase %zu [%.2f..%.2f ms] load %.2f\n", ph.index,
                  ph.start.ms(), ph.end.ms(), ph.load);
      TableWriter pt({"class", "packets", "avg lat [us]", "p99 [us]",
                      "tput [MB/s]", "offered [MB/s]"});
      for (const TrafficClass c : all_traffic_classes()) {
        const ClassReport& r = ph.of(c);
        pt.row({std::string(to_string(c)), TableWriter::num(r.packets),
                TableWriter::num(r.avg_packet_latency_us, 1),
                TableWriter::num(r.p99_packet_latency_us, 1),
                TableWriter::num(r.throughput_bytes_per_sec / 1e6, 1),
                TableWriter::num(r.offered_bytes_per_sec / 1e6, 1)});
      }
      pt.print(stdout);
      if (ph.churn_arrivals || ph.churn_rejected || ph.churn_departures) {
        std::printf("churn: %llu arrivals, %llu rejected, %llu departures\n",
                    static_cast<unsigned long long>(ph.churn_arrivals),
                    static_cast<unsigned long long>(ph.churn_rejected),
                    static_cast<unsigned long long>(ph.churn_departures));
      }
    }
    std::printf("\nteardown: %llu flows released, reserved %.1f B/s after\n",
                static_cast<unsigned long long>(srep.flows_released),
                srep.reserved_bps_after_teardown);
  }

  if (rep.fault.active) {
    const auto& f = rep.fault;
    std::printf("\nfaults: %llu link failures (%llu permanent), %llu repairs, "
                "%llu credit losses (%llu B), %llu TTD corruptions, "
                "%llu clock drifts\n",
                static_cast<unsigned long long>(f.injected.link_failures),
                static_cast<unsigned long long>(
                    f.injected.permanent_link_failures),
                static_cast<unsigned long long>(f.injected.link_repairs),
                static_cast<unsigned long long>(f.injected.credit_loss_events),
                static_cast<unsigned long long>(f.injected.credit_bytes_lost),
                static_cast<unsigned long long>(f.injected.ttd_corruptions),
                static_cast<unsigned long long>(f.injected.clock_drift_events));
    std::printf("recovery: %llu credit resyncs (%llu B restored), "
                "%llu control retries (%llu abandoned)\n",
                static_cast<unsigned long long>(f.credit_resyncs),
                static_cast<unsigned long long>(f.credit_bytes_resynced),
                static_cast<unsigned long long>(f.control_retries),
                static_cast<unsigned long long>(f.control_retries_abandoned));
    std::printf("degradation: %llu packets dropped on dead links, "
                "%llu link-down stalls, %llu submissions shed, "
                "%llu flows rerouted, %llu flows shed\n",
                static_cast<unsigned long long>(f.packets_dropped_link_down),
                static_cast<unsigned long long>(f.link_down_stalls),
                static_cast<unsigned long long>(f.shed_submissions),
                static_cast<unsigned long long>(f.flows_rerouted),
                static_cast<unsigned long long>(f.flows_shed));
    if (f.watchdog_fired) {
      std::fprintf(stderr, "dqos_sim: DEADLOCK WATCHDOG FIRED\n%s",
                   f.watchdog_report.c_str());
    }
  }

  // Overload-degradation report: printed only when some degradation
  // machinery was configured, so default runs keep their legacy output.
  if (cfg.expiry_drop || cfg.admit_retry_max > 0 || cfg.shed_highwater > 0.0 ||
      cfg.fault.audit_epoch > Duration::zero()) {
    const auto& d = rep.degradation;
    std::printf("\noverload: %llu packets expired (%llu B), %llu flows "
                "aborted, %llu frames dropped, %llu submissions refused\n",
                static_cast<unsigned long long>(d.expired_packets),
                static_cast<unsigned long long>(d.expired_bytes),
                static_cast<unsigned long long>(d.flows_aborted),
                static_cast<unsigned long long>(d.frames_dropped),
                static_cast<unsigned long long>(d.messages_refused));
    std::printf("backpressure: %llu retries (%llu exhausted), %llu "
                "readmitted, %llu flows shed at high water; %llu audits "
                "passed\n",
                static_cast<unsigned long long>(d.admit_retries),
                static_cast<unsigned long long>(d.admit_retries_exhausted),
                static_cast<unsigned long long>(d.flows_readmitted),
                static_cast<unsigned long long>(d.flows_shed_highwater),
                static_cast<unsigned long long>(d.audits_passed));
    TableWriter slo({"class", "miss rate", "goodput [MB/s]", "p99.9 [us]",
                     "expired"});
    for (const TrafficClass c : all_traffic_classes()) {
      const ClassReport& r = rep.of(c);
      slo.row({std::string(to_string(c)),
               TableWriter::num(r.deadline_miss_rate, 4),
               TableWriter::num(r.goodput_bytes_per_sec / 1e6, 1),
               TableWriter::num(r.p999_packet_latency_us, 1),
               TableWriter::num(r.expired_packets)});
    }
    slo.print(stdout);
  }

  if (tracer) {
    const std::string path = args.get_or("trace", "trace.csv");
    if (tracer->dump_csv(path)) {
      std::fprintf(stderr, "dqos_sim: wrote %zu trace records to %s (%llu lost "
                   "to capacity)\n",
                   tracer->records().size(), path.c_str(),
                   static_cast<unsigned long long>(tracer->overflow()));
    }
  }

  if (const auto csv_path = args.get("csv")) {
    CsvWriter csv(*csv_path);
    csv.row({"class", "packets", "messages", "avg_latency_us", "p99_latency_us",
             "max_latency_us", "jitter_us", "throughput_Bps", "offered_Bps",
             "avg_message_latency_us"});
    auto class_row = [&](const std::string& label, const ClassReport& r) {
      csv.row({label, TableWriter::num(r.packets), TableWriter::num(r.messages),
               TableWriter::num(r.avg_packet_latency_us, 3),
               TableWriter::num(r.p99_packet_latency_us, 3),
               TableWriter::num(r.max_packet_latency_us, 3),
               TableWriter::num(r.jitter_us, 3),
               TableWriter::num(r.throughput_bytes_per_sec, 1),
               TableWriter::num(r.offered_bytes_per_sec, 1),
               TableWriter::num(r.avg_message_latency_us, 3)});
    };
    for (const TrafficClass c : all_traffic_classes()) {
      class_row(std::string(to_string(c)), rep.of(c));
    }
    // Phased runs append per-phase rows (labelled p<N>:<class>) after the
    // whole-run rows, so single-phase CSVs keep their legacy bytes.
    if (scn && scn->multi_phase()) {
      for (const PhaseReport& ph : srep.phases) {
        for (const TrafficClass c : all_traffic_classes()) {
          std::string label = "p";
          label += std::to_string(ph.index);
          label += ':';
          label += to_string(c);
          class_row(label, ph.of(c));
        }
      }
    }
  }
  if (rep.fault.watchdog_fired) return 3;
  return rep.out_of_order == 0 ? 0 : 1;
}
