// Layer drivers: each times one layer's public API on inputs drawn from the
// workload's config and seed, outside any full simulation, so a layer's
// per-call cost can be read next to the end-to-end numbers it feeds.
#pragma once

#include <cstdint>

#include "record.hpp"
#include "workload.hpp"

namespace perfbench {

/// Runs every layer driver under spans in `log` and adds one field per
/// per-layer timing metric to `out`. `events` is the event count of the
/// workload's own run: the calendar driver fires that many events.
void run_layer_drivers(const Workload& w, std::uint64_t events, SpanLog& log,
                       JsonObject& out);

}  // namespace perfbench
