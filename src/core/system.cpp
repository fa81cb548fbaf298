#include "core/system.h"

#include <algorithm>
#include <map>

#include "support/strings.h"

namespace roload::core {

void RegisterCpuCounters(trace::CounterRegistry* counters,
                         const cpu::Cpu& cpu, const std::string& prefix) {
  const cpu::CpuStats& c = cpu.stats();
  counters->Register(prefix + "cpu.cycles", &c.cycles);
  counters->Register(prefix + "cpu.instret", &c.instructions);
  counters->Register(prefix + "cpu.loads", &c.loads);
  counters->Register(prefix + "cpu.stores", &c.stores);
  counters->Register(prefix + "cpu.roload_loads", &c.roload_loads);
  counters->Register(prefix + "cpu.branches", &c.branches);
  counters->Register(prefix + "cpu.taken_branches", &c.taken_branches);
  counters->Register(prefix + "cpu.indirect_jumps", &c.indirect_jumps);

  const tlb::TlbStats& it = cpu.itlb_stats();
  counters->Register(prefix + "tlb.i.hit", &it.hits);
  counters->Register(prefix + "tlb.i.miss", &it.misses);
  counters->Register(prefix + "tlb.i.flush", &it.flushes);
  counters->Register(prefix + "tlb.i.permission_fault", &it.permission_faults);

  const tlb::TlbStats& dt = cpu.dtlb_stats();
  counters->Register(prefix + "tlb.d.hit", &dt.hits);
  counters->Register(prefix + "tlb.d.miss", &dt.misses);
  counters->Register(prefix + "tlb.d.flush", &dt.flushes);
  counters->Register(prefix + "tlb.d.permission_fault", &dt.permission_faults);
  counters->Register(prefix + "tlb.d.key_check", &dt.key_checks);
  counters->Register(prefix + "tlb.d.key_check_hit", &dt.key_check_hits);
  counters->Register(prefix + "tlb.d.key_fault", &dt.roload_key_faults);
  counters->Register(prefix + "tlb.d.writable_fault",
                     &dt.roload_writable_faults);

  const cache::CacheStats& ic = cpu.icache_stats();
  counters->Register(prefix + "cache.i.hit", &ic.hits);
  counters->Register(prefix + "cache.i.miss", &ic.misses);
  counters->Register(prefix + "cache.i.writeback", &ic.writebacks);

  const cache::CacheStats& dc = cpu.dcache_stats();
  counters->Register(prefix + "cache.d.hit", &dc.hits);
  counters->Register(prefix + "cache.d.miss", &dc.misses);
  counters->Register(prefix + "cache.d.writeback", &dc.writebacks);

  // Per-key key-check breakdown. The keys a run exercises are not known
  // up front, so this is a dynamic source over the dTLB's per-key table
  // rather than fixed cells; the sums match tlb.d.key_check_hit and
  // tlb.d.key_check exactly (the differential test in tests/test_tlb.cpp
  // pins the invariant).
  const tlb::TlbStats* dtlb = &cpu.dtlb_stats();
  counters->RegisterSource(
      [dtlb, prefix](std::vector<std::pair<std::string, std::uint64_t>>* out) {
        for (const tlb::TlbKeyCheckCount& entry : dtlb->key_check_by_key) {
          out->emplace_back(
              prefix + StrFormat("tlb.keycheck.pass.%u", entry.key),
              entry.passes);
          out->emplace_back(
              prefix + StrFormat("tlb.keycheck.fail.%u", entry.key),
              entry.fails);
        }
      });
}

void RegisterKernelCounters(trace::CounterRegistry* counters,
                            const kernel::Kernel& kernel) {
  const kernel::KernelStats& k = kernel.stats();
  counters->Register("kernel.syscalls", &k.syscalls);
  counters->Register("kernel.traps", &k.traps);
  counters->Register("kernel.fault.roload", &k.roload_faults);
  counters->Register("kernel.signals", &k.signals);
  counters->Register("kernel.context_switches", &k.context_switches);
  counters->Register("kernel.tlb_shootdowns", &k.tlb_shootdowns);
}

namespace {

// The plain counter names on a machine with >= 2 harts: each hart's
// unprefixed registration, read back and summed by name, so every
// grid/bench that reads "cpu.cycles" or "tlb.d.key_check" keeps working.
// Sums are totals of work done; "smp.cycles_max" is the parallel
// wall-clock (what Run() reports).
void RegisterAggregateCounters(trace::CounterRegistry* counters,
                               const std::vector<cpu::Cpu*>& cpus) {
  auto per_hart =
      std::make_shared<std::vector<trace::CounterRegistry>>(cpus.size());
  for (std::size_t h = 0; h < cpus.size(); ++h) {
    RegisterCpuCounters(&(*per_hart)[h], *cpus[h]);
  }
  counters->RegisterSource(
      [per_hart, cpus](
          std::vector<std::pair<std::string, std::uint64_t>>* out) {
        std::map<std::string, std::uint64_t> sums;
        for (const trace::CounterRegistry& hart : *per_hart) {
          for (const auto& [name, value] : hart.Snapshot()) sums[name] += value;
        }
        out->insert(out->end(), sums.begin(), sums.end());
        std::uint64_t cycles_max = 0;
        for (const cpu::Cpu* cpu : cpus) {
          cycles_max = std::max(cycles_max, cpu->stats().cycles);
        }
        out->emplace_back("smp.harts",
                          static_cast<std::uint64_t>(cpus.size()));
        out->emplace_back("smp.cycles_max", cycles_max);
      });
}

}  // namespace

Machine::Machine(const MachineConfig& config) : config_(config) {
  ROLOAD_CHECK(config.harts >= 1);
  memory_ = std::make_unique<mem::PhysMemory>(config.memory_bytes);

  // The audit layer's census is fed by kRoLoad events, so enabling audit
  // implies that category. Pure observation either way: the category mask
  // never influences architectural state or cycle accounting.
  trace::TraceConfig trace_config = config.trace;
  if (trace_config.audit) {
    trace_config.categories |=
        trace::CategoryBit(trace::EventCategory::kRoLoad);
  }
  trace_ = std::make_unique<trace::Hub>(trace_config);

  cpu::CpuConfig cpu_config = config.cpu;
  cpu_config.roload_enabled = config.variant != SystemVariant::kBaseline;
  // Per-superblock telemetry rides the trace config: host-only collection
  // inside each translator, observation by construction.
  if (trace_config.jit) cpu_config.jit_stats = true;

  // A single hart keeps the single-level hierarchy — and with it the
  // exact seed cycle model.
  if (config.harts >= 2) {
    l2_ = std::make_unique<cache::Cache>(config.l2);
    l2_->set_trace(trace_.get(), trace::Unit::kL2Cache);
  }

  std::vector<cpu::Cpu*> harts;
  for (unsigned h = 0; h < config.harts; ++h) {
    auto cpu = std::make_unique<cpu::Cpu>(cpu_config, memory_.get());
    if (l2_ != nullptr) cpu->set_next_level_cache(l2_.get());
    cpu->set_trace(trace_.get());
    // One code-version table for the whole machine (block caches stay
    // per-hart): a store on any hart must fail the self-modifying-code
    // guard of blocks every other hart translated from that page.
    if (h > 0) cpu->ShareCodeTable(cpus_[0]->code_table());
    harts.push_back(cpu.get());
    cpus_.push_back(std::move(cpu));
  }

  kernel::KernelConfig kernel_config;
  kernel_config.roload_aware = config.variant == SystemVariant::kFullRoload;
  kernel_config.tlb_shootdown = config.tlb_shootdown;
  kernel_ = std::make_unique<kernel::Kernel>(kernel_config, memory_.get(),
                                             harts);
  kernel_->set_trace(trace_.get());
  trace_->set_clock(&cpus_[0]->stats().cycles);

  if (config.harts == 1) {
    RegisterCpuCounters(&trace_->counters(), *cpus_[0]);
  } else {
    for (unsigned h = 0; h < config.harts; ++h) {
      RegisterCpuCounters(&trace_->counters(), *cpus_[h],
                          StrFormat("hart%u.", h));
    }
    RegisterAggregateCounters(&trace_->counters(), harts);
    const cache::CacheStats& l2s = l2_->stats();
    trace_->counters().Register("cache.l2.hit", &l2s.hits);
    trace_->counters().Register("cache.l2.miss", &l2s.misses);
    trace_->counters().Register("cache.l2.writeback", &l2s.writebacks);
  }
  RegisterKernelCounters(&trace_->counters(), *kernel_);

  if (config_.trace.audit) {
    auditor_ = std::make_unique<audit::Auditor>(cpus_[0].get(),
                                                memory_.get());
    for (unsigned h = 1; h < config.harts; ++h) {
      auditor_->RegisterHartCpu(h, cpus_[h].get());
    }
    trace_->AddSink(auditor_.get());
    kernel_->set_fault_observer(auditor_.get());
    const audit::Auditor* auditor = auditor_.get();
    trace_->counters().RegisterSource(
        [auditor](std::vector<std::pair<std::string, std::uint64_t>>* out) {
          auditor->AppendCounters(out);
        });
  }
}

Status Machine::Load(const asmtool::LinkImage& image) {
  if (auditor_ != nullptr) auditor_->SetImage(image);
  auto pid = kernel_->LoadProcess(image);
  if (!pid.ok()) return pid.status();
  // Fresh page tables may reuse recycled frames.
  for (const auto& cpu : cpus_) cpu->FlushTlbs();
  return Status::Ok();
}

kernel::RunResult Machine::Run(std::uint64_t max_instructions) {
  hart_results_ = kernel_->RunAll(config_.quantum, max_instructions);

  // Merge to one machine-level result: a kill wins (it halted the whole
  // machine and carries the faulting hart), then an instruction-limit,
  // then a clean exit with the first nonzero exit code.
  kernel::RunResult merged;
  bool have_kill = false;
  bool have_limit = false;
  for (const kernel::RunResult& r : hart_results_) {
    if (r.kind == kernel::ExitKind::kKilled && !have_kill) {
      merged = r;
      have_kill = true;
    }
  }
  if (!have_kill) {
    for (const kernel::RunResult& r : hart_results_) {
      if (r.kind == kernel::ExitKind::kInstructionLimit && !have_limit) {
        merged = r;
        have_limit = true;
      }
    }
  }
  if (!have_kill && !have_limit) {
    merged = hart_results_[0];
    for (const kernel::RunResult& r : hart_results_) {
      if (r.exit_code != 0) {
        merged.exit_code = r.exit_code;
        merged.hart = r.hart;
        break;
      }
    }
  }
  std::uint64_t instructions = 0;
  std::uint64_t cycles_max = 0;
  for (const kernel::RunResult& r : hart_results_) {
    instructions += r.instructions;
    if (r.cycles > cycles_max) cycles_max = r.cycles;
  }
  merged.instructions = instructions;
  merged.cycles = cycles_max;  // parallel wall-clock
  merged.stdout_text = hart_results_[0].stdout_text;
  merged.peak_mem_kib = hart_results_[0].peak_mem_kib;
  return merged;
}

}  // namespace roload::core
