// The multi-hart names for the one ROLoad machine (core/system.h): an
// smp::Machine is a core::Machine, whatever its hart count.
#pragma once

#include <cstdint>

#include "core/system.h"
#include "core/toolchain.h"

namespace roload::smp {

using Machine = core::Machine;
using SmpConfig = core::MachineConfig;

// core::RunBuild with the hart count up front.
inline StatusOr<core::RunMetrics> RunBuildSmp(
    const core::BuildResult& build, core::SystemVariant variant,
    unsigned harts, std::uint64_t max_instructions = 1ull << 34,
    const trace::TraceConfig& trace = {},
    cpu::ExecTier exec = cpu::ExecTier::kFast) {
  return core::RunBuild(build, variant, max_instructions, trace, exec, harts);
}

}  // namespace roload::smp
