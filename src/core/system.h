// The top-level ROLoad system API: a whole simulated machine (CPU cores +
// MMUs + caches + kernel) in one object, configurable as any of the three
// system variants the paper evaluates (Section V-B):
//   * kBaseline           — unmodified processor, unmodified kernel
//   * kProcessorModified  — ld.ro-capable processor, unmodified kernel
//   * kFullRoload         — ld.ro-capable processor + roload-aware kernel
//
// A machine has one or more harts, each a CPU core with its own L1 caches
// and I/D TLBs, over one physical memory and one kernel. Harts are
// scheduled by a deterministic timing-interleaved round-robin (a fixed
// instruction quantum per turn, on a single host thread), so a run's
// interleaving is a pure function of the program and the config, never of
// host parallelism. The kernel is hart-aware: syscalls execute on the
// calling hart, traps latch that hart's supervisor CSRs, and PTE edits
// trigger the TLB-shootdown protocol (kernel::Kernel::ShootdownTlbs) so a
// key change made on one hart can never leave a stale keyed translation
// live in another hart's TLB.
//
// Two things depend on the hart count, both model and naming decisions:
// a shared L2 sits behind the L1s only with >= 2 harts (one hart keeps the
// flat L1-miss latency), and counters carry a "hart<N>." namespace plus
// fleet-wide aggregates only with >= 2 harts (one hart keeps the plain
// names: "cpu.cycles", "tlb.d.key_check", ...).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asmtool/image.h"
#include "audit/audit.h"
#include "cache/cache.h"
#include "cpu/cpu.h"
#include "kernel/kernel.h"
#include "mem/phys_memory.h"
#include "trace/hub.h"

namespace roload::core {

enum class SystemVariant : std::uint8_t {
  kBaseline,
  kProcessorModified,
  kFullRoload,
};

struct MachineConfig {
  SystemVariant variant = SystemVariant::kFullRoload;
  unsigned harts = 1;
  std::uint64_t memory_bytes = 64ull * 1024 * 1024;
  cpu::CpuConfig cpu;  // per-hart geometry; defaults match Table II
  // Shared L2 behind every hart's L1s, present only with >= 2 harts.
  // 256 KiB, 8-way by default; its miss_cycles is the DRAM latency.
  cache::CacheConfig l2{256 * 1024, 8, 64, 12, 40, 10, true};
  // Scheduler quantum: instructions per turn while more than one context
  // is runnable. Smaller values interleave tighter (the shootdown race
  // tests use ~100); the default keeps scheduling overhead negligible.
  std::uint64_t quantum = 10000;
  // The shootdown protocol switch (kernel::KernelConfig::tlb_shootdown).
  // Off models the unsound local-only sfence.vma kernel.
  bool tlb_shootdown = true;
  // Telemetry: event-category mask / profiler switch. The defaults record
  // nothing; counters are always registered and queryable.
  trace::TraceConfig trace;
};

// Bridges one CPU's stats structs (core, both TLBs, both L1s, plus the
// dynamic per-key key-check source) into the hierarchical counter
// namespace under `prefix`. A 1-hart machine uses the empty prefix; wider
// machines register each hart under "hart<N>." and sum the harts'
// unprefixed registrations into the plain names. The registry stores
// pointers into the live structs, so the hot paths keep their
// plain-increment cost.
void RegisterCpuCounters(trace::CounterRegistry* counters,
                         const cpu::Cpu& cpu, const std::string& prefix = "");

// Kernel-side counters ("kernel.syscalls", "kernel.fault.roload", ...).
// Never prefixed: the kernel is one object no matter how many harts.
void RegisterKernelCounters(trace::CounterRegistry* counters,
                            const kernel::Kernel& kernel);

class Machine {
 public:
  explicit Machine(const MachineConfig& config = {});

  // Loads `image` as a new process and prepares every hart to run it
  // (shared address space; hart h enters at the entry with a0 = h,
  // a1 = harts and its own stack), flushing each hart's TLBs. Call once
  // per machine: Run schedules and reports every loaded context, so
  // time-slicing several programs goes through kernel().LoadProcess and
  // kernel().RunAll.
  Status Load(const asmtool::LinkImage& image);

  // Runs every loaded context to completion (all exited), a fatal signal
  // (which kills the faulting process and so halts a machine running one
  // program), or `max_instructions` retired across all harts. The
  // returned result merges the per-hart results: a kill wins (carrying
  // the faulting hart id), then an instruction-limit, then normal exit
  // (first nonzero exit code across harts, else 0); instructions sum
  // across harts while cycles are the maximum over harts — the parallel
  // wall-clock.
  kernel::RunResult Run(std::uint64_t max_instructions = 1ull << 34);

  // Per-hart results of the last Run (one per hart for one program).
  const std::vector<kernel::RunResult>& hart_results() const {
    return hart_results_;
  }

  unsigned harts() const { return config_.harts; }
  SystemVariant variant() const { return config_.variant; }
  cpu::Cpu& cpu(unsigned hart = 0) { return *cpus_[hart]; }
  kernel::Kernel& kernel() { return *kernel_; }
  mem::PhysMemory& memory() { return *memory_; }
  cache::Cache* l2() { return l2_.get(); }

  // The machine's telemetry hub: every module's counters live in
  // trace().counters(); events and the cycle profiler obey
  // MachineConfig::trace.
  trace::Hub& trace() { return *trace_; }
  const trace::Hub& trace() const { return *trace_; }

  // The security-forensics collector (dispatch census + fault autopsies).
  // Null unless MachineConfig::trace.audit was set.
  audit::Auditor* audit() { return auditor_.get(); }
  const audit::Auditor* audit() const { return auditor_.get(); }

 private:
  MachineConfig config_;
  std::unique_ptr<mem::PhysMemory> memory_;
  std::unique_ptr<trace::Hub> trace_;
  std::unique_ptr<cache::Cache> l2_;
  std::vector<std::unique_ptr<cpu::Cpu>> cpus_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<audit::Auditor> auditor_;
  std::vector<kernel::RunResult> hart_results_;
};

// The names the single-hart API has always used for the same machine.
using System = Machine;
using SystemConfig = MachineConfig;

}  // namespace roload::core
