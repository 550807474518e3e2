/// \file goldens.hpp
/// The golden constants and fire-order hashing shared by the serial
/// determinism tests (test_determinism.cpp) and the sharded-equality tests
/// (test_parallel_equality.cpp). One home, so a conscious recapture edits
/// one line per constant.
#pragma once

#include <cstdint>

#include "core/network_simulator.hpp"

namespace dqos::golden {

/// FNV-1a over a stream of 64-bit words.
class StreamHash {
 public:
  void mix(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffULL;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Fire-order (key, time) stream hash of the shortened mesh16 run (both
/// test files' mesh16_config, serial and at every shard count). Recaptured
/// when the event key became (time, entity, counter); see CHANGES.md.
inline constexpr std::uint64_t kGoldenMesh16FireOrderHash =
    0x6c8ee485eea83098ULL;
/// CSV bytes of the reduced Figure-2 sweep (serial and 2 shards).
inline constexpr std::uint64_t kGoldenFig2CsvHash = 0x291d89f300f86c23ULL;

/// Installs `cb` as the fire hook on whichever engine `net` runs — the
/// shard executor when sharded, the plain calendar otherwise.
inline void set_fire_hook(NetworkSimulator& net,
                          Callback<void(std::uint64_t, TimePoint)> cb) {
  if (ShardExecutor* engine = net.shard_engine()) {
    engine->set_fire_hook(cb);
  } else {
    net.sim().set_fire_hook(cb);
  }
}

/// Hashes the run's (key, time) fire stream into `h`, which must outlive
/// the run.
inline void hook_hash(NetworkSimulator& net, StreamHash& h) {
  set_fire_hook(net, {[](void* ctx, std::uint64_t key, TimePoint t) {
                        auto* hash = static_cast<StreamHash*>(ctx);
                        hash->mix(key);
                        hash->mix(static_cast<std::uint64_t>(t.ps()));
                      },
                      &h});
}

}  // namespace dqos::golden
