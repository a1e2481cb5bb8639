// The paper's synchronous time axis: simulation time in whole ticks.
// Every driver runs its own per-tick loop over this type.
#pragma once

#include <cstdint>

namespace mobi::sim {

using Tick = std::int64_t;

}  // namespace mobi::sim
