// The traced pipeline: the same public layer calls that core::Build,
// core::RunBuild, smp::RunBuildSmp and the campaign executor are made of,
// composed here with a span around each call (spans.h). With no SpanLog in
// the current context every span is a no-op, but the benchmark only calls
// these in its traced rounds; untraced rounds call the library entry
// points themselves, and each traced op's simulated outcome is checked
// against the untraced one.
#pragma once

#include <string>

#include "campaign/runner.h"
#include "campaign/spec.h"
#include "core/toolchain.h"

namespace perfbench {

// core::Build: passes.harden, backend.codegen, asmtool.assemble under a
// core.build span, with backend.asm_bytes, asmtool.section_bytes (sum of
// Section::bytes) and asmtool.mapped_bytes (sum of Section::size).
// Options::verify is not supported (the benchmark never sets it).
roload::StatusOr<roload::core::BuildResult> Build(
    roload::ir::Module module, const roload::core::BuildOptions& options);

// core::RunBuild on the default tier: core.system_ctor, kernel.load,
// cpu.run, trace.snapshot, core.system_dtor under core.run_build, with
// the ctor's and loader's faulted-in KiB and cpu.instructions.
roload::StatusOr<roload::core::RunMetrics> RunBuild(
    const roload::core::BuildResult& build,
    roload::core::SystemVariant variant);

// smp::RunBuildSmp on the default tier: smp.machine_ctor, smp.load,
// smp.run, trace.snapshot, smp.machine_dtor under smp.run_build.
roload::StatusOr<roload::core::RunMetrics> RunBuildSmp(
    const roload::core::BuildResult& build,
    roload::core::SystemVariant variant, unsigned harts);

// campaign::Run plus the figure benches' FillSession + ToJson export:
// one campaign.pass span, a campaign.cell span per run (parented to the
// pass across worker threads, op = first_op + run index), and the export
// under trace.export. `json` receives the exported document.
roload::campaign::CampaignResult RunCampaign(
    const roload::campaign::CampaignSpec& spec, unsigned jobs, int first_op,
    std::string* json);

}  // namespace perfbench
