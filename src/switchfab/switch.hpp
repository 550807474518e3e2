/// \file switch.hpp
/// The interconnect switch model (§4.1): **combined input and output
/// buffering** with VOQ at the inputs, a finite-speedup crossbar, credit-
/// based flow control, and one of the four evaluated architectures:
///
///   | Architecture      | queue discipline | crossbar arbiter | deadlines |
///   |-------------------|------------------|------------------|-----------|
///   | Traditional 2 VCs | FIFO             | round-robin      | ignored   |
///   | Ideal             | heap             | EDF              | full sort |
///   | Simple 2 VCs      | FIFO             | EDF              | heads only|
///   | Advanced 2 VCs    | take-over        | EDF              | heads only|
///
/// Packet path through the switch:
///   link -> input buffer (per VC, virtual output queues) -> crossbar
///   (one read per input, one write per output at speedup x link rate)
///   -> output buffer (per VC, one disciplined queue) -> output link.
///
/// The queue discipline applies to *both* sides, exactly as §3.4 describes
/// ("the high priority VC of an input or output buffer"). With plain FIFOs
/// the output buffer freezes transmission order at crossbar-transfer time —
/// that is where order errors delay low-deadline packets; the take-over
/// queue gives them a second chance, and the Ideal heap re-sorts fully.
///
/// All four architectures use the same VC structure (regulated VC0 with
/// absolute priority over best-effort VC1 by default) so the silicon cost
/// is comparable — only the Ideal heap is unimplementable.
///
/// The deadline tag crosses links as TTD and is reconstructed against this
/// switch's (skewed) local clock at header arrival — no behaviour may
/// depend on the global clock.
///
/// ## Datapath micro-architecture (DESIGN.md §8)
///
/// The software model mirrors the paper's hardware-cost argument: the
/// datapath is flat arrays, not pointer graphs.
///
///   - All queues (input VOQs and output buffers) are `PacketQueue` values
///     in contiguous arrays — the discipline is a tagged union resolved at
///     construction, so enqueue/dequeue/candidate are direct calls.
///   - `try_fill` arbitration never peeks into queues: a **candidate
///     deadline cache** (`voq_dl_` / `voq_sz_`, laid out `[vc][out][in]`)
///     is maintained incrementally at every VOQ mutation, so one
///     arbitration round is a linear scan of `num_ports` int64s — the
///     software analogue of the paper's "heads suffice" sorting-network
///     argument (§3.2).
///   - The crossbar input arbiter (EDF `edf_pick` or round-robin
///     `round_robin_pick`, arbiter.hpp) is an inline scan of that row;
///     only the round-robin pointer is state (`rr_last_`).
///   - Per-switch occupancy is an O(1) counter (`queued_packets_`)
///     maintained at the same mutation points, so periodic probe sampling
///     reads a word instead of walking every queue.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "switchfab/arbiter.hpp"
#include "switchfab/channel.hpp"
#include "switchfab/input_buffer.hpp"
#include "trace/tracer.hpp"

namespace dqos {

/// The four architectures of §4.1.
enum class SwitchArch : std::uint8_t {
  kTraditional2Vc = 0,
  kIdeal = 1,
  kSimple2Vc = 2,
  kAdvanced2Vc = 3,
};
std::string_view to_string(SwitchArch a);
constexpr std::array<SwitchArch, 4> all_switch_archs() {
  return {SwitchArch::kTraditional2Vc, SwitchArch::kIdeal, SwitchArch::kSimple2Vc,
          SwitchArch::kAdvanced2Vc};
}

[[nodiscard]] QueueKind queue_kind_for(SwitchArch a);
[[nodiscard]] InputArbiterKind input_arbiter_for(SwitchArch a);

struct SwitchParams {
  SwitchArch arch = SwitchArch::kAdvanced2Vc;
  std::uint8_t num_vcs = 2;
  std::uint32_t buffer_bytes_per_vc = 8 * 1024;  ///< 8 KB/VC (§4.1), each side
  /// Crossbar bandwidth = speedup x link bandwidth (CIOQ switches use a
  /// small internal speedup so the fabric is not the bottleneck).
  double crossbar_speedup = 2.0;
  /// Non-empty => Traditional multi-VC weighted arbitration table (A5);
  /// empty => strict VC priority (all paper architectures).
  std::vector<std::uint32_t> vc_weights;
  /// Extra per-decision scheduling latency of the buffer data structure
  /// (ablation A10): a hardware heap needs multiple SRAM accesses per
  /// dequeue (Ioannou & Katevenis report pipelined designs precisely to
  /// hide this). Applied to every link-drain grant when the architecture
  /// uses heap buffers; zero (default) = the paper's idealized heap.
  Duration heap_op_latency = Duration::zero();
};

struct SwitchCounters {
  std::array<std::uint64_t, kNumTrafficClasses> packets_forwarded{};
  std::array<std::uint64_t, kNumTrafficClasses> bytes_forwarded{};
  std::uint64_t credit_stalls = 0;  ///< link-drain rounds blocked on credits
  std::uint64_t link_down_stalls = 0;   ///< drain rounds blocked on a dead link
  std::uint64_t dropped_link_down = 0;  ///< packets shed at/for a failed link
};

class Switch final : public PacketReceiver {
 public:
  Switch(Simulator& sim, NodeId id, std::size_t num_ports, const SwitchParams& params,
         LocalClock clock = LocalClock{});

  /// Wires the outbound channel of `port` (this switch is the sender).
  void attach_output(PortId port, Channel* ch);
  /// Wires the inbound channel of `port` (this switch is the receiver;
  /// used for returning credits upstream).
  void attach_input(PortId port, Channel* ch);

  void receive_packet(PacketPtr p, PortId in_port) override;

  /// Optional packet-event tracing (null = off, zero cost).
  void set_tracer(PacketTracer* tracer) { tracer_ = tracer; }
  /// Observer for packets this switch sheds (failed-link drops). Raw
  /// Callback (fn-pointer + context); the context must outlive the switch.
  void set_drop_callback(Callback<void(TrafficClass)> cb) { drop_cb_ = cb; }

  /// Drops everything queued for `port` (output buffers and the input VOQs
  /// feeding it), returning upstream credits for VOQ packets. Called when
  /// the attached link fails permanently and flows are rerouted; queued
  /// packets would otherwise wedge the VOQ forever. Returns packets shed.
  std::size_t flush_output(PortId port);

  /// Fault injection: re-bases this switch's local clock (clock drift).
  /// Deadlines of already-queued packets keep the old domain — exactly the
  /// mis-stamping hazard drift injection is meant to exercise.
  void set_clock_offset(Duration offset) { clock_ = LocalClock(offset); }

  /// Per-port credit/occupancy snapshot for the deadlock watchdog report.
  [[nodiscard]] std::string debug_dump() const;

  [[nodiscard]] NodeId id() const { return id_; }
  /// This node's event lane (DESIGN.md §12), shared with its channels.
  [[nodiscard]] EventLane& lane() { return lane_; }
  [[nodiscard]] std::size_t num_ports() const { return inputs_.size(); }
  [[nodiscard]] const LocalClock& clock() const { return clock_; }
  [[nodiscard]] const SwitchCounters& counters() const { return counters_; }

  /// Aggregated queue diagnostics (input VOQs + output queues).
  [[nodiscard]] std::uint64_t order_errors() const;
  /// Order errors on one VC only (e.g. the regulated VC).
  [[nodiscard]] std::uint64_t order_errors_vc(VcId vc) const;
  [[nodiscard]] std::uint64_t takeovers() const;
  /// Packets currently buffered inside the switch (both sides). O(1): an
  /// incrementally-maintained per-switch counter (probe sampling reads
  /// this every interval; it must not walk the queues).
  [[nodiscard]] std::size_t packets_queued() const { return queued_packets_; }
  /// Packets mid-crossbar (dequeued from a VOQ, not yet landed in an
  /// output buffer) — they live in scheduled transfer events and are not
  /// counted by packets_queued(). The auditor's packet census needs them.
  [[nodiscard]] std::size_t packets_in_transit() const { return xbar_in_transit_; }

 private:
  /// Input/Output carry a back-pointer + port index so channel callbacks
  /// can be wired as raw (fn, ctx) pairs with the struct as context — the
  /// vectors are sized once in the constructor and never reallocate, so
  /// element addresses are stable for the life of the switch.
  struct Input {
    Switch* self = nullptr;      ///< owning switch (callback context)
    PortId port = kInvalidPort;  ///< this input's index
    Channel* channel = nullptr;  ///< upstream (credits)
    TimePoint read_busy_until;   ///< crossbar read port
  };
  struct Output {
    Switch* self = nullptr;      ///< owning switch (callback context)
    PortId port = kInvalidPort;  ///< this output's index
    Channel* channel = nullptr;  ///< downstream link
    TimePoint write_busy_until;  ///< crossbar write port
    TimePoint link_busy_until;   ///< wire
    /// Weighted VC arbitration table (A5) — null for the paper's strict
    /// VC priority, which is inlined in try_drain.
    std::unique_ptr<WeightedVcPolicy> weighted_vc;
  };

  // --- flat datapath storage accessors ---
  [[nodiscard]] InputBuffer& in_buf(std::size_t in, VcId vc) {
    return in_bufs_[in * params_.num_vcs + vc];
  }
  [[nodiscard]] const InputBuffer& in_buf(std::size_t in, VcId vc) const {
    return in_bufs_[in * params_.num_vcs + vc];
  }
  [[nodiscard]] PacketQueue& out_q(std::size_t out, VcId vc) {
    return out_qs_[out * params_.num_vcs + vc];
  }
  [[nodiscard]] const PacketQueue& out_q(std::size_t out, VcId vc) const {
    return out_qs_[out * params_.num_vcs + vc];
  }
  /// Candidate-cache index, laid out so an arbitration round for a given
  /// (vc, out) scans `num_ports` contiguous entries over `in`.
  [[nodiscard]] std::size_t voq_index(VcId vc, std::size_t out,
                                      std::size_t in) const {
    return (static_cast<std::size_t>(vc) * inputs_.size() + out) * inputs_.size() +
           in;
  }
  /// Re-derives the cached candidate deadline/size of one VOQ after a
  /// mutation (the cache invariant: cache == candidate() at all times).
  void refresh_voq(std::size_t in, VcId vc, std::size_t out) {
    const Packet* c = in_buf(in, vc).candidate(out);
    const std::size_t i = voq_index(vc, out, in);
    voq_dl_[i] = c != nullptr ? c->local_deadline.ps() : kNoCandidate;
    voq_sz_[i] = c != nullptr ? c->size() : 0;
  }

  /// Crossbar scheduling: move one packet from an input VOQ into `out`'s
  /// output buffer, if ports and space allow.
  void try_fill(std::size_t out);
  /// Link scheduling: transmit the best packet from `out`'s output buffers.
  void try_drain(std::size_t out);
  /// One drain attempt on a single VC; true if a packet left on the link.
  bool drain_vc(std::size_t out, VcId vc, TimePoint now);
  /// An input's crossbar read port freed: outputs it feeds may fill again.
  void on_input_free(std::size_t in);
  /// Crossbar transfer completion: the packet lands in the output buffer.
  void xbar_arrive(PacketPtr p, std::size_t out);

 public:
  /// try_fill's transfer-completion closure as a named capture struct so it
  /// can opt into the trivially-relocatable InlineTask path (one per
  /// crossbar grant; a PacketPtr lambda capture cannot be named for the
  /// trait). Public only for the trait specialization below.
  struct XbarTask {
    Switch* sw;
    PacketPtr p;
    std::size_t out;
    void operator()() { sw->xbar_arrive(std::move(p), out); }
  };

 private:
  Simulator& sim_;
  NodeId id_;
  EventLane lane_;  ///< entity 1 + id_: every event this switch schedules
  SwitchParams params_;
  LocalClock clock_;
  Bandwidth xbar_bw_;  ///< derived: link bw x speedup (set on first attach)
  bool edf_arbiter_ = true;   ///< resolved once from params_.arch
  bool heap_queues_ = false;  ///< arch uses heap buffers (A10 latency)
  std::vector<Input> inputs_;
  std::vector<Output> outputs_;
  std::vector<InputBuffer> in_bufs_;   ///< [in * num_vcs + vc]
  std::vector<PacketQueue> out_qs_;    ///< [out * num_vcs + vc]
  /// Candidate deadline / size per VOQ, indexed by voq_index() — what the
  /// crossbar arbiter scans instead of peeking through the queues.
  std::vector<std::int64_t> voq_dl_;
  std::vector<std::uint32_t> voq_sz_;
  /// Round-robin grant pointer per (out, vc) (Traditional arch only).
  std::vector<std::size_t> rr_last_;
  std::size_t queued_packets_ = 0;
  std::size_t xbar_in_transit_ = 0;
  SwitchCounters counters_;
  PacketTracer* tracer_ = nullptr;
  Callback<void(TrafficClass)> drop_cb_;
  /// Scratch for the weighted VC order (A5 path only; strict priority never
  /// materializes an order).
  std::vector<VcId> vc_order_scratch_;
};

/// PacketPtr relocates by memcpy (the moved-from unique_ptr is null and is
/// dropped, not destroyed — see the trait contract in inline_task.hpp).
template <>
struct is_trivially_relocatable<Switch::XbarTask> : std::true_type {};

}  // namespace dqos
