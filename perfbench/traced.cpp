#include "traced.h"

#include <memory>
#include <utility>

#include "asmtool/assembler.h"
#include "backend/codegen.h"
#include "passes/passes.h"
#include "smp/machine.h"
#include "spans.h"
#include "trace/session.h"
#include "workloads/spec_like.h"

namespace perfbench {

using namespace roload;

StatusOr<core::BuildResult> Build(ir::Module module,
                                  const core::BuildOptions& options) {
  ScopedSpan build_span("core.build");
  Status harden = Status::Ok();
  {
    ScopedSpan span("passes.harden");
    switch (options.defense) {
      case core::Defense::kNone:
        break;
      case core::Defense::kVCall:
        harden = passes::VCallProtectPass(&module, options.vcall);
        break;
      case core::Defense::kVTint:
        harden = passes::VTintPass(&module);
        break;
      case core::Defense::kICall:
        harden = passes::ICallCfiPass(&module, options.icall);
        break;
      case core::Defense::kClassicCfi:
        harden = passes::ClassicCfiPass(&module, options.cfi);
        break;
    }
  }
  if (!harden.ok()) return harden;

  StatusOr<backend::CodegenResult> codegen = [&] {
    ScopedSpan span("backend.codegen");
    return backend::Generate(module, options.codegen);
  }();
  if (!codegen.ok()) return codegen.status();
  RecordCount("backend.asm_bytes", codegen->assembly.size());

  StatusOr<asmtool::LinkImage> image = [&] {
    ScopedSpan span("asmtool.assemble");
    return asmtool::Assemble(codegen->assembly);
  }();
  if (!image.ok()) return image.status();
  std::uint64_t section_bytes = 0;
  std::uint64_t mapped_bytes = 0;
  for (const asmtool::Section& section : image->sections) {
    section_bytes += section.bytes.size();
    mapped_bytes += section.size;
  }
  RecordCount("asmtool.section_bytes", section_bytes);
  RecordCount("asmtool.mapped_bytes", mapped_bytes);

  // As in core::Build, including its copies: StatusOr has no rvalue
  // operator*, so `*std::move(...)` copies the assembly and the image.
  core::BuildResult result;
  result.codegen = *std::move(codegen);
  result.image_bytes = image->MappedBytes();
  result.code_bytes = image->CodeBytes();
  result.image = *std::move(image);
  result.hardened = std::move(module);
  result.options = options;
  return result;
}

namespace {

// The RunMetrics fields the campaign export and the correctness gate read.
core::RunMetrics MetricsOf(const kernel::RunResult& run,
                           const core::BuildResult& build) {
  core::RunMetrics metrics;
  metrics.cycles = run.cycles;
  metrics.instructions = run.instructions;
  metrics.peak_mem_kib = run.peak_mem_kib;
  metrics.image_bytes = build.image_bytes;
  metrics.exit_code = run.exit_code;
  metrics.completed = run.kind == kernel::ExitKind::kExited;
  metrics.roload_violation = run.roload_violation;
  metrics.stdout_text = run.stdout_text;
  return metrics;
}

}  // namespace

StatusOr<core::RunMetrics> RunBuild(const core::BuildResult& build,
                                    core::SystemVariant variant) {
  ScopedSpan run_span("core.run_build");
  core::SystemConfig config;
  config.variant = variant;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kFast);
  std::unique_ptr<core::System> system;
  {
    ScopedSpan span("core.system_ctor");
    ScopedRssCount rss("core.system_ctor.rss_kib");
    system = std::make_unique<core::System>(config);
  }
  Status load = Status::Ok();
  {
    ScopedSpan span("kernel.load");
    ScopedRssCount rss("kernel.load.rss_kib");
    load = system->Load(build.image);
  }
  if (!load.ok()) return load;
  kernel::RunResult run;
  {
    ScopedSpan span("cpu.run");
    run = system->Run();
  }
  RecordCount("cpu.instructions", run.instructions);

  core::RunMetrics metrics = MetricsOf(run, build);
  metrics.roload_loads = system->cpu().stats().roload_loads;
  {
    ScopedSpan span("trace.snapshot");
    metrics.counters = system->trace().counters().Snapshot();
  }
  {
    ScopedSpan span("core.system_dtor");
    system.reset();
  }
  return metrics;
}

StatusOr<core::RunMetrics> RunBuildSmp(const core::BuildResult& build,
                                       core::SystemVariant variant,
                                       unsigned harts) {
  ScopedSpan run_span("smp.run_build");
  smp::SmpConfig config;
  config.variant = variant;
  config.harts = harts;
  cpu::SetExecTier(&config.cpu, cpu::ExecTier::kFast);
  std::unique_ptr<smp::Machine> machine;
  {
    ScopedSpan span("smp.machine_ctor");
    machine = std::make_unique<smp::Machine>(config);
  }
  Status load = Status::Ok();
  {
    ScopedSpan span("smp.load");
    load = machine->Load(build.image);
  }
  if (!load.ok()) return load;
  kernel::RunResult run;
  {
    ScopedSpan span("smp.run");
    run = machine->Run();
  }
  RecordCount("cpu.instructions", run.instructions);

  core::RunMetrics metrics = MetricsOf(run, build);
  for (unsigned h = 0; h < harts; ++h) {
    metrics.roload_loads += machine->cpu(h).stats().roload_loads;
  }
  {
    ScopedSpan span("trace.snapshot");
    metrics.counters = machine->trace().counters().Snapshot();
  }
  {
    ScopedSpan span("smp.machine_dtor");
    machine.reset();
  }
  return metrics;
}

namespace {

// campaign's ExecuteOne, layer by layer.
campaign::RunOutcome ExecuteOne(const campaign::RunSpec& spec,
                                std::size_t index) {
  ScopedSpan cell_span("campaign.cell");
  campaign::RunOutcome outcome;
  outcome.name = spec.name;
  outcome.index = index;
  outcome.build_only = spec.build_only;

  const ir::Module module = [&] {
    ScopedSpan span("workloads.generate");
    return workloads::Generate(spec.workload);
  }();
  auto build = perfbench::Build(module, spec.build);
  if (!build.ok()) {
    outcome.status = build.status();
    return outcome;
  }
  outcome.build.image_bytes = build->image_bytes;
  outcome.build.code_bytes = build->code_bytes;
  outcome.build.roload_instructions = build->codegen.roload_instructions;
  outcome.build.extra_addi_for_roload = build->codegen.extra_addi_for_roload;
  outcome.build.cfi_id_words = build->codegen.cfi_id_words;
  if (spec.build_only) return outcome;

  auto metrics = spec.harts > 1
                     ? perfbench::RunBuildSmp(*build, spec.variant, spec.harts)
                     : perfbench::RunBuild(*build, spec.variant);
  if (!metrics.ok()) {
    outcome.status = metrics.status();
    return outcome;
  }
  outcome.metrics = *std::move(metrics);
  return outcome;
}

}  // namespace

campaign::CampaignResult RunCampaign(const campaign::CampaignSpec& spec,
                                     unsigned jobs, int first_op,
                                     std::string* json) {
  ScopedSpan pass_span("campaign.pass");
  const std::vector<campaign::RunSpec> runs = campaign::Expand(spec);
  const unsigned workers = campaign::ResolveJobs(jobs, runs.size());
  const SpanContext pass_context = CurrentContext();
  std::vector<campaign::RunOutcome> outcomes =
      campaign::ParallelMap<campaign::RunOutcome>(
          runs.size(), workers, [&](std::size_t i) {
            SpanContext cell_context = pass_context;
            cell_context.op = first_op + static_cast<int>(i);
            ContextGuard guard(cell_context);
            return ExecuteOne(runs[i], i);
          });
  campaign::CampaignResult result(spec, std::move(outcomes), workers);
  {
    ScopedSpan span("trace.export");
    trace::TelemetrySession session(spec.name);
    result.FillSession(&session);
    *json = session.ToJson();
  }
  return result;
}

}  // namespace perfbench
