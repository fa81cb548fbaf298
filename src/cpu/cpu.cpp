#include "cpu/cpu.h"

#include "support/bits.h"
#include "support/status.h"

namespace roload::cpu {
namespace {

// Superblock terminators: unconditional transfers and environment ops end
// a block (conditional branches continue fall-through; execution exits on
// divergence).
bool EndsBlock(isa::Opcode op) {
  return op == isa::Opcode::kJal || op == isa::Opcode::kJalr ||
         op == isa::Opcode::kEcall || op == isa::Opcode::kEbreak;
}

// The RV64IM register-register and register-immediate ALU, lui and auipc:
// every op that only reads rs1, rs2, imm and pc and writes rd. Sets *rd,
// adds the M-extension latency to *cycles and returns true; returns false
// for any other opcode. This is the one copy of these semantics: Step()
// and the block executor both run it, so the tiers cannot disagree on an
// ALU result or its cycles.
[[gnu::always_inline]] inline bool ExecuteAlu(const isa::Instruction& inst,
                                              std::uint64_t rs1,
                                              std::uint64_t rs2,
                                              std::uint64_t pc,
                                              const CpuConfig& config,
                                              std::uint64_t* rd,
                                              unsigned* cycles) {
  std::uint64_t value;
  using isa::Opcode;
  switch (inst.op) {
    case Opcode::kAddi:
      value = rs1 + static_cast<std::uint64_t>(inst.imm);
      break;
    case Opcode::kSlti:
      value = static_cast<std::int64_t>(rs1) < inst.imm ? 1 : 0;
      break;
    case Opcode::kSltiu:
      value = rs1 < static_cast<std::uint64_t>(inst.imm) ? 1 : 0;
      break;
    case Opcode::kXori:
      value = rs1 ^ static_cast<std::uint64_t>(inst.imm);
      break;
    case Opcode::kOri:
      value = rs1 | static_cast<std::uint64_t>(inst.imm);
      break;
    case Opcode::kAndi:
      value = rs1 & static_cast<std::uint64_t>(inst.imm);
      break;
    case Opcode::kSlli:
      value = rs1 << (inst.imm & 63);
      break;
    case Opcode::kSrli:
      value = rs1 >> (inst.imm & 63);
      break;
    case Opcode::kSrai:
      value = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(rs1) >> (inst.imm & 63));
      break;
    case Opcode::kAddiw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(rs1 + static_cast<std::uint64_t>(inst.imm))));
      break;
    case Opcode::kSlliw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(rs1 << (inst.imm & 31))));
      break;
    case Opcode::kSrliw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(rs1) >>
                                    (inst.imm & 31))));
      break;
    case Opcode::kSraiw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(rs1) >> (inst.imm & 31)));
      break;
    case Opcode::kAdd:
      value = rs1 + rs2;
      break;
    case Opcode::kSub:
      value = rs1 - rs2;
      break;
    case Opcode::kSll:
      value = rs1 << (rs2 & 63);
      break;
    case Opcode::kSlt:
      value = static_cast<std::int64_t>(rs1) < static_cast<std::int64_t>(rs2)
                  ? 1
                  : 0;
      break;
    case Opcode::kSltu:
      value = rs1 < rs2 ? 1 : 0;
      break;
    case Opcode::kXor:
      value = rs1 ^ rs2;
      break;
    case Opcode::kSrl:
      value = rs1 >> (rs2 & 63);
      break;
    case Opcode::kSra:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(rs1) >>
                                         (rs2 & 63));
      break;
    case Opcode::kOr:
      value = rs1 | rs2;
      break;
    case Opcode::kAnd:
      value = rs1 & rs2;
      break;
    case Opcode::kAddw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(rs1 + rs2)));
      break;
    case Opcode::kSubw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(rs1 - rs2)));
      break;
    case Opcode::kSllw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(rs1 << (rs2 & 31))));
      break;
    case Opcode::kSrlw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(rs1) >>
                                    (rs2 & 31))));
      break;
    case Opcode::kSraw:
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(rs1) >> (rs2 & 31)));
      break;
    case Opcode::kMul:
      *cycles += config.mul_cycles;
      value = rs1 * rs2;
      break;
    case Opcode::kMulw:
      *cycles += config.mul_cycles;
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(
          static_cast<std::int32_t>(rs1 * rs2)));
      break;
    case Opcode::kDiv: {
      *cycles += config.div_cycles;
      const auto a = static_cast<std::int64_t>(rs1);
      const auto b = static_cast<std::int64_t>(rs2);
      if (b == 0) {
        value = ~std::uint64_t{0};
      } else if (a == INT64_MIN && b == -1) {
        value = rs1;
      } else {
        value = static_cast<std::uint64_t>(a / b);
      }
      break;
    }
    case Opcode::kDivu:
      *cycles += config.div_cycles;
      value = rs2 == 0 ? ~std::uint64_t{0} : rs1 / rs2;
      break;
    case Opcode::kRem: {
      *cycles += config.div_cycles;
      const auto a = static_cast<std::int64_t>(rs1);
      const auto b = static_cast<std::int64_t>(rs2);
      if (b == 0) {
        value = rs1;
      } else if (a == INT64_MIN && b == -1) {
        value = 0;
      } else {
        value = static_cast<std::uint64_t>(a % b);
      }
      break;
    }
    case Opcode::kRemu:
      *cycles += config.div_cycles;
      value = rs2 == 0 ? rs1 : rs1 % rs2;
      break;
    case Opcode::kDivw: {
      *cycles += config.div_cycles;
      const auto a = static_cast<std::int32_t>(rs1);
      const auto b = static_cast<std::int32_t>(rs2);
      std::int32_t q;
      if (b == 0) {
        q = -1;
      } else if (a == INT32_MIN && b == -1) {
        q = a;
      } else {
        q = a / b;
      }
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(q));
      break;
    }
    case Opcode::kRemw: {
      *cycles += config.div_cycles;
      const auto a = static_cast<std::int32_t>(rs1);
      const auto b = static_cast<std::int32_t>(rs2);
      std::int32_t r;
      if (b == 0) {
        r = a;
      } else if (a == INT32_MIN && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      value = static_cast<std::uint64_t>(static_cast<std::int64_t>(r));
      break;
    }
    case Opcode::kLui:
      value = static_cast<std::uint64_t>(inst.imm << 12);
      break;
    case Opcode::kAuipc:
      value = pc + static_cast<std::uint64_t>(inst.imm << 12);
      break;
    default:
      return false;
  }
  *rd = value;
  return true;
}

// The condition of a conditional branch (false for any other opcode).
inline bool BranchTaken(isa::Opcode op, std::uint64_t rs1, std::uint64_t rs2) {
  using isa::Opcode;
  switch (op) {
    case Opcode::kBeq:
      return rs1 == rs2;
    case Opcode::kBne:
      return rs1 != rs2;
    case Opcode::kBlt:
      return static_cast<std::int64_t>(rs1) < static_cast<std::int64_t>(rs2);
    case Opcode::kBge:
      return static_cast<std::int64_t>(rs1) >= static_cast<std::int64_t>(rs2);
    case Opcode::kBltu:
      return rs1 < rs2;
    case Opcode::kBgeu:
      return rs1 >= rs2;
    default:
      return false;
  }
}

}  // namespace

void SetHostFastPaths(CpuConfig* config, bool enabled) {
  config->host_decode_cache = enabled;
  config->icache.host_fast_path = enabled;
  config->dcache.host_fast_path = enabled;
  config->itlb.host_indexed_lookup = enabled;
  config->dtlb.host_indexed_lookup = enabled;
}

void SetExecTier(CpuConfig* config, ExecTier tier) {
  SetHostFastPaths(config, tier != ExecTier::kInterp);
  config->host_translate = tier == ExecTier::kTranslated;
}

std::string_view ExecTierName(ExecTier tier) {
  switch (tier) {
    case ExecTier::kInterp:
      return "interp";
    case ExecTier::kFast:
      return "fast";
    case ExecTier::kTranslated:
      return "translated";
  }
  return "?";
}

std::optional<ExecTier> ParseExecTier(std::string_view name) {
  if (name == "interp") return ExecTier::kInterp;
  if (name == "fast") return ExecTier::kFast;
  if (name == "translated") return ExecTier::kTranslated;
  return std::nullopt;
}

Cpu::Cpu(const CpuConfig& config, mem::PhysMemory* memory)
    : config_(config),
      memory_(memory),
      icache_(config.icache),
      dcache_(config.dcache),
      itlb_(config.itlb, memory),
      dtlb_(config.dtlb, memory) {
  if (config.host_decode_cache) decode_cache_.resize(kDecodeCacheSlots);
  if (config.host_translate) {
    translator_ = std::make_unique<Translator>(config.translate_threshold);
    if (config.jit_stats) translator_->EnableJitStats();
    code_table_ = std::make_shared<CodeVersionTable>(memory->size());
    code_table_ptr_ = code_table_.get();
  }
}

void Cpu::set_reg(unsigned index, std::uint64_t value) {
  ROLOAD_CHECK(index < isa::kNumRegs);
  if (index != 0) regs_[index] = value;
}

void Cpu::FlushTlbs() {
  itlb_.Flush();
  dtlb_.Flush();
  if (code_table_ptr_ != nullptr) code_table_ptr_->Advance();
  // The sfence.vma analogue also drops host-cached decodes: a remap can
  // change the bytes behind an unchanged pc, and a same-bytes remap must
  // not resurrect a decode taken under dropped translations.
  InvalidateDecodeCache();
  // Same reasoning for translated blocks: a flush signals PTE edits
  // (remap, mprotect re-key, shootdown), so drop them all. Flushes only
  // happen between blocks (kernel code runs between Run calls), so no
  // block is mid-replay and no chain source is live.
  if (translator_ != nullptr) translator_->InvalidateAll();
}

void Cpu::InvalidateDecodeCache() {
  if (++decode_generation_ == 0) {
    // Generation wrapped: scrub the slots so pre-wrap entries can never
    // alias the restarted counter.
    for (DecodeSlot& slot : decode_cache_) slot = DecodeSlot{};
    decode_generation_ = 1;
  }
}

void Cpu::set_trace(trace::Hub* hub) {
  trace_ = hub;
  itlb_.set_trace(hub, trace::Unit::kITlb);
  dtlb_.set_trace(hub, trace::Unit::kDTlb);
  icache_.set_trace(hub, trace::Unit::kICache);
  dcache_.set_trace(hub, trace::Unit::kDCache);
}

void Cpu::ResetStats() {
  stats_ = CpuStats{};
  itlb_.ResetStats();
  dtlb_.ResetStats();
  icache_.ResetStats();
  dcache_.ResetStats();
}

void Cpu::RaiseTrap(isa::TrapCause cause, std::uint64_t tval) {
  pending_trap_ = isa::Trap{cause, tval};
}

bool Cpu::FetchDecode(isa::Instruction* inst, unsigned* cycles) {
  if ((pc_ & 1) != 0) {
    RaiseTrap(isa::TrapCause::kInstructionAddressMisaligned, pc_);
    return false;
  }
  const bool profiling = trace_ != nullptr && trace_->profiling();
  auto low = itlb_.Translate(root_ppn_, pc_, tlb::AccessType::kFetch, 0);
  *cycles += low.cycles;
  if (profiling) {
    trace_->profiler().Charge(trace::CycleBucket::kITlbWalk, low.cycles);
  }
  if (!low.ok) {
    RaiseTrap(low.cause, pc_);
    return false;
  }
  if (!memory_->Contains(low.phys_addr, 2)) {
    RaiseTrap(isa::TrapCause::kInstructionAccessFault, pc_);
    return false;
  }
  const unsigned ifetch_cycles = icache_.Access(low.phys_addr, /*write=*/false);
  *cycles += ifetch_cycles;
  if (profiling) {
    // The hit latency is part of ordinary execution; only the fill beyond
    // it is a miss stall.
    trace_->profiler().Charge(trace::CycleBucket::kICacheMiss,
                              ifetch_cycles - config_.icache.hit_cycles);
  }

  std::uint32_t raw =
      static_cast<std::uint32_t>(memory_->ReadUnchecked(low.phys_addr, 2));
  const unsigned length = isa::ParcelLength(static_cast<std::uint16_t>(raw));
  if (length == 4) {
    // The upper half may live on the next page.
    std::uint64_t upper_phys = low.phys_addr + 2;
    if (((pc_ + 2) & (mem::kPageSize - 1)) == 0) {
      auto high =
          itlb_.Translate(root_ppn_, pc_ + 2, tlb::AccessType::kFetch, 0);
      *cycles += high.cycles;
      if (profiling) {
        trace_->profiler().Charge(trace::CycleBucket::kITlbWalk,
                                  high.cycles);
      }
      if (!high.ok) {
        RaiseTrap(high.cause, pc_ + 2);
        return false;
      }
      upper_phys = high.phys_addr;
      const unsigned upper_cycles =
          icache_.Access(upper_phys, /*write=*/false);
      *cycles += upper_cycles;
      if (profiling) {
        trace_->profiler().Charge(trace::CycleBucket::kICacheMiss,
                                  upper_cycles - config_.icache.hit_cycles);
      }
    }
    if (!memory_->Contains(upper_phys, 2)) {
      RaiseTrap(isa::TrapCause::kInstructionAccessFault, pc_);
      return false;
    }
    raw |= static_cast<std::uint32_t>(memory_->ReadUnchecked(upper_phys, 2))
           << 16;
  }

  DecodeSlot* slot = nullptr;
  if (config_.host_decode_cache) {
    slot = &decode_cache_[(pc_ >> 1) & (kDecodeCacheSlots - 1)];
    if (slot->generation == decode_generation_ && slot->pc == pc_ &&
        slot->raw == raw) {
      *inst = slot->inst;
      return true;
    }
  }

  auto decoded = isa::Decode(raw);
  if (!decoded) {
    RaiseTrap(isa::TrapCause::kIllegalInstruction, raw);
    return false;
  }
  // The unmodified baseline core has no ROLoad decoder: the custom-0 and
  // reserved-RVC encodings are illegal instructions there.
  if (!config_.roload_enabled && isa::IsRoLoad(decoded->op)) {
    RaiseTrap(isa::TrapCause::kIllegalInstruction, raw);
    return false;
  }
  // Only successful decodes are cached, so the roload_enabled rejection
  // (fixed per Cpu) can never be skipped by a hit.
  if (slot != nullptr) {
    slot->pc = pc_;
    slot->raw = raw;
    slot->generation = decode_generation_;
    slot->inst = *decoded;
  }
  *inst = *decoded;
  return true;
}

bool Cpu::MemAccess(const isa::Instruction& inst, std::uint64_t virt_addr,
                    bool write, std::uint64_t* value, unsigned* cycles) {
  const unsigned bytes = isa::MemAccessBytes(inst.op);
  if ((virt_addr & (bytes - 1)) != 0) {
    RaiseTrap(write ? isa::TrapCause::kStoreAddressMisaligned
                    : isa::TrapCause::kLoadAddressMisaligned,
              virt_addr);
    return false;
  }
  const tlb::AccessType access =
      write ? tlb::AccessType::kStore
            : (isa::IsRoLoad(inst.op) ? tlb::AccessType::kRoLoad
                                      : tlb::AccessType::kLoad);
  const bool profiling = trace_ != nullptr && trace_->profiling();
  auto xlat = dtlb_.Translate(root_ppn_, virt_addr, access, inst.key);
  *cycles += xlat.cycles;
  if (profiling) {
    trace_->profiler().Charge(trace::CycleBucket::kDTlbWalk, xlat.cycles);
  }
  if (access == tlb::AccessType::kRoLoad && trace_ != nullptr &&
      trace_->enabled(trace::EventCategory::kRoLoad)) {
    // Dispatch-census feed: one record per executed ld.ro site, pass or
    // fail, with the outcome packed over the static key (see
    // EventType::kRoLoadCheck). The CPU emits it (not the TLB) because
    // only the CPU knows the site pc.
    const std::uint64_t outcome =
        xlat.ok ? 0 : static_cast<std::uint64_t>(xlat.roload_fail_kind);
    trace_->Emit(trace::Unit::kCpu, trace::EventCategory::kRoLoad,
                 trace::EventType::kRoLoadCheck, pc_, virt_addr,
                 (outcome << 16) | inst.key);
  }
  if (!xlat.ok) {
    RaiseTrap(xlat.cause, virt_addr);
    return false;
  }
  if (!memory_->Contains(xlat.phys_addr, bytes)) {
    RaiseTrap(write ? isa::TrapCause::kStoreAccessFault
                    : isa::TrapCause::kLoadAccessFault,
              virt_addr);
    return false;
  }
  const unsigned dcache_cycles = dcache_.Access(xlat.phys_addr, write);
  *cycles += dcache_cycles;
  if (profiling) {
    trace_->profiler().Charge(trace::CycleBucket::kDCacheMiss,
                              dcache_cycles - config_.dcache.hit_cycles);
  }
  if (write) {
    memory_->WriteUnchecked(xlat.phys_addr, bytes, *value);
    // Self-modifying-code barrier for the translation tier (no-op unless
    // the page holds translated code; stores are size-aligned, so one
    // page covers the whole access).
    if (code_table_ptr_ != nullptr) code_table_ptr_->OnWrite(xlat.phys_addr);
  } else {
    std::uint64_t raw = memory_->ReadUnchecked(xlat.phys_addr, bytes);
    if (!isa::LoadIsUnsigned(inst.op) && bytes < 8) {
      raw = static_cast<std::uint64_t>(
          SignExtend(raw, bytes * 8));
    }
    *value = raw;
  }
  return true;
}

StepEvent Cpu::Step() {
  isa::Instruction inst;
  unsigned cycles = 0;
  // An interpreted step can evict I-TLB entries and I-cache lines (its
  // fetch runs the real lookup paths), so every proven block guard may be
  // stale afterwards — advance the epoch so re-entries re-prove.
  if (code_table_ptr_ != nullptr) code_table_ptr_->Advance();
  const bool profiling = trace_ != nullptr && trace_->profiling();
  const std::uint64_t step_pc = pc_;
  if (profiling) trace_->profiler().BeginStep();
  if (!FetchDecode(&inst, &cycles)) {
    stats_.cycles += cycles + 1;
    if (profiling) {
      trace_->profiler().EndStep(trace::CycleBucket::kTrap, step_pc,
                                 cycles + 1);
    }
    return StepEvent::kTrap;
  }
  if (trace_hook_) trace_hook_(pc_, inst);
  return ExecuteDecoded(inst, cycles);
}

StepEvent Cpu::ExecuteDecoded(const isa::Instruction& inst, unsigned cycles) {
  const bool profiling = trace_ != nullptr && trace_->profiling();
  const std::uint64_t step_pc = pc_;
  const std::uint64_t next_pc = pc_ + inst.length;
  std::uint64_t new_pc = next_pc;
  const std::uint64_t rs1 = regs_[inst.rs1];
  const std::uint64_t rs2 = regs_[inst.rs2];
  std::uint64_t rd_value = 0;
  bool writes_rd = true;
  // A trapping op charges its cycles but does not retire; pc stays on it.
  const auto trap = [&] {
    stats_.cycles += cycles + 1;
    if (profiling) {
      trace_->profiler().EndStep(trace::CycleBucket::kTrap, step_pc,
                                 cycles + 1);
    }
    return StepEvent::kTrap;
  };

  using isa::Opcode;
  switch (inst.op) {
    case Opcode::kJal:
      rd_value = next_pc;
      new_pc = pc_ + static_cast<std::uint64_t>(inst.imm);
      cycles += config_.taken_branch_cycles;
      break;
    case Opcode::kJalr:
      rd_value = next_pc;
      new_pc = (rs1 + static_cast<std::uint64_t>(inst.imm)) & ~std::uint64_t{1};
      cycles += config_.taken_branch_cycles;
      ++stats_.indirect_jumps;
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
      writes_rd = false;
      ++stats_.branches;
      if (BranchTaken(inst.op, rs1, rs2)) {
        ++stats_.taken_branches;
        new_pc = pc_ + static_cast<std::uint64_t>(inst.imm);
        cycles += config_.taken_branch_cycles;
      }
      break;
    case Opcode::kLb:
    case Opcode::kLh:
    case Opcode::kLw:
    case Opcode::kLd:
    case Opcode::kLbu:
    case Opcode::kLhu:
    case Opcode::kLwu:
    case Opcode::kLbRo:
    case Opcode::kLhRo:
    case Opcode::kLwRo:
    case Opcode::kLdRo:
    case Opcode::kCLdRo: {
      // ROLoad-family addresses are (rs1) with no offset; inst.imm is 0 for
      // them by decode construction, so the same expression serves both.
      const std::uint64_t addr = rs1 + static_cast<std::uint64_t>(inst.imm);
      ++stats_.loads;
      if (isa::IsRoLoad(inst.op)) ++stats_.roload_loads;
      if (!MemAccess(inst, addr, /*write=*/false, &rd_value, &cycles)) {
        return trap();
      }
      break;
    }
    case Opcode::kSb:
    case Opcode::kSh:
    case Opcode::kSw:
    case Opcode::kSd: {
      writes_rd = false;
      ++stats_.stores;
      const std::uint64_t addr = rs1 + static_cast<std::uint64_t>(inst.imm);
      std::uint64_t value = rs2;
      if (!MemAccess(inst, addr, /*write=*/true, &value, &cycles)) {
        return trap();
      }
      break;
    }
    case Opcode::kEcall:
      stats_.cycles += cycles + 1;
      ++stats_.instructions;
      pc_ = next_pc;
      if (profiling) {
        trace_->profiler().EndStep(trace::CycleBucket::kSyscall, step_pc,
                                   cycles + 1);
      }
      return StepEvent::kEcall;
    case Opcode::kEbreak:
      RaiseTrap(isa::TrapCause::kBreakpoint, pc_);
      return trap();
    case Opcode::kFence:
      writes_rd = false;
      break;
    default: {  // every other opcode is an ALU op
      const bool alu =
          ExecuteAlu(inst, rs1, rs2, pc_, config_, &rd_value, &cycles);
      ROLOAD_CHECK(alu);
      break;
    }
  }

  if (writes_rd && inst.rd != 0) regs_[inst.rd] = rd_value;
  pc_ = new_pc;
  stats_.cycles += cycles + 1;
  ++stats_.instructions;
  if (trace_ != nullptr) {
    if (profiling) {
      // A ld.ro's own execution cycles form the "roload_load" bucket —
      // the direct cost of the checked-load path (Fig 3/4 decomposition).
      trace_->profiler().EndStep(isa::IsRoLoad(inst.op)
                                     ? trace::CycleBucket::kRoLoadLoad
                                     : trace::CycleBucket::kCompute,
                                 step_pc, cycles + 1);
    }
    if (trace_->enabled(trace::EventCategory::kInstruction)) {
      trace_->Emit(trace::Unit::kCpu, trace::EventCategory::kInstruction,
                   trace::EventType::kRetire, step_pc, 0,
                   static_cast<std::uint64_t>(inst.op));
    }
  }
  return StepEvent::kRetired;
}

bool Cpu::TranslationTransparent() const {
  if (translator_ == nullptr) return false;
  // A per-retire hook, the cycle profiler, or per-instruction retire
  // events all observe individual fetch/decode steps — interpret so they
  // see exactly the reference stream. TLB/cache/roload event categories
  // stay exact under translation (hits emit no events; misses and the
  // whole data side run the real paths), so they do not deopt.
  if (trace_hook_) return false;
  if (trace_ != nullptr &&
      (trace_->profiling() ||
       trace_->enabled(trace::EventCategory::kInstruction))) {
    return false;
  }
  return true;
}

StepEvent Cpu::Run(std::uint64_t budget) {
  if (budget == 0) budget = 1;
  const std::uint64_t target = stats_.instructions + budget;
  if (!TranslationTransparent()) {
    while (true) {
      const StepEvent event = Step();
      if (event != StepEvent::kRetired || stats_.instructions >= target) {
        return event;
      }
    }
  }
  // Translated hot loop: chained block -> block, falling back to the map,
  // the builder, and finally single-step interpretation (which performs
  // any real TLB/cache miss the guards refused to replay).
  TranslatedBlock* prev = nullptr;
  while (true) {
    TranslatedBlock* block =
        prev != nullptr ? prev->ChainLookup(pc_, root_ppn_) : nullptr;
    const bool via_chain = block != nullptr;
    if (block != nullptr) {
      ++translator_->stats().chained_entries;
    } else {
      if (prev != nullptr) ++translator_->stats().chain_breaks;
      // Visit-count gate before the map: the direct-mapped counter is a
      // fraction of the hash lookup's cost, and a block can only exist
      // for a pc that crossed the threshold. Aliasing in the counter
      // table can evict a hot pc's count; that merely re-warms the pc
      // through the interpreter for a few steps — the map is consulted
      // again as soon as the count returns, never a correctness issue.
      if (translator_->NoteVisit(root_ppn_, pc_)) {
        block = translator_->Lookup(root_ppn_, pc_);
        if (block == nullptr) {
          if (translator_->AtCapacity()) {
            // Frees every block; drop the chain source before it dangles.
            translator_->InvalidateAll();
            prev = nullptr;
          }
          block = BuildBlock();
        }
        if (block != nullptr && prev != nullptr) {
          prev->ChainInstall(pc_, block);
        }
      }
    }
    StepEvent event;
    if (block != nullptr && BlockGuardsPass(block)) {
      ++translator_->stats().block_entries;
      if (block->jit != nullptr) {
        ++block->jit->entries;
        if (via_chain) ++block->jit->chained;
      }
      event = ExecuteBlock(block, target);
      prev = block->dead ? nullptr : block;
    } else {
      event = Step();
      prev = nullptr;
    }
    if (event != StepEvent::kRetired || stats_.instructions >= target) {
      return event;
    }
  }
}

TranslatedBlock* Cpu::BuildBlock() {
  if ((pc_ & 1) != 0) return nullptr;
  tlb::Tlb::Entry* entry = itlb_.Probe(root_ppn_, pc_);
  if (entry == nullptr) return nullptr;
  if (!entry->pte.executable() || !entry->pte.user()) return nullptr;
  auto block = std::make_unique<TranslatedBlock>();
  block->head_pc = pc_;
  block->root_ppn = root_ppn_;
  block->vpn = pc_ >> mem::kPageShift;
  block->pte_raw = entry->pte.raw();
  block->phys_page = entry->phys_page;
  block->itlb_entry = entry;
  std::uint64_t vpc = pc_;
  while (block->ops.size() < kMaxBlockOps) {
    if ((vpc >> mem::kPageShift) != block->vpn) break;  // page end
    const std::uint64_t phys =
        (block->phys_page << mem::kPageShift) | (vpc & (mem::kPageSize - 1));
    if (!memory_->Contains(phys, 2)) break;
    std::uint32_t raw =
        static_cast<std::uint32_t>(memory_->ReadUnchecked(phys, 2));
    const unsigned length = isa::ParcelLength(static_cast<std::uint16_t>(raw));
    if (length == 4) {
      // A page-straddling fetch takes the interpreter's two-translation
      // path; blocks simply stop before it.
      if (((vpc + 2) & (mem::kPageSize - 1)) == 0) break;
      if (!memory_->Contains(phys + 2, 2)) break;
      raw |= static_cast<std::uint32_t>(memory_->ReadUnchecked(phys + 2, 2))
             << 16;
    }
    auto decoded = isa::Decode(raw);
    if (!decoded) break;
    if (!config_.roload_enabled && isa::IsRoLoad(decoded->op)) break;
    cache::Cache::Line* line = icache_.Probe(phys);
    if (line == nullptr) break;  // not resident yet; interpreting warms it
    // Dedup line guards by identity: Probe returning the same way for two
    // addresses proves they share one cache line.
    std::uint32_t line_index = 0;
    for (; line_index < block->lines.size(); ++line_index) {
      if (block->lines[line_index].line == line) break;
    }
    if (line_index == block->lines.size()) {
      block->lines.push_back(LineGuard{line, phys, icache_.TagOf(phys)});
    }
    TranslatedOp op;
    op.inst = *decoded;
    op.pc = vpc;
    op.fetch_phys = phys;
    op.line_index = line_index;
    if (isa::IsLoad(decoded->op) || isa::IsStore(decoded->op)) {
      op.mem_bytes =
          static_cast<std::uint8_t>(isa::MemAccessBytes(decoded->op));
      op.load_unsigned = isa::LoadIsUnsigned(decoded->op);
    }
    block->ops.push_back(op);
    vpc += decoded->length;
    if (EndsBlock(decoded->op)) break;
  }
  if (block->ops.empty()) return nullptr;
  code_table_ptr_->MarkCode(block->phys_page);
  block->code_version = code_table_ptr_->Version(block->phys_page);
  return translator_->Insert(std::move(block));
}

bool Cpu::BlockGuardsPass(TranslatedBlock* block) {
  // Epoch fast path: the full guard set below was proven at valid_epoch,
  // and the epoch advances on every event that could invalidate any guard
  // (interpreted step, TLB flush/shootdown, code-page write, root switch;
  // Retire resets valid_epoch to 0). Same epoch ⟹ same proof holds.
  if (block->valid_epoch == code_table_ptr_->guard_epoch()) return true;
  // Every failure below is one guard_fails increment attributed to
  // exactly one DeoptReason bucket, keeping the roload.jit.v1 invariant
  // Σ deopt[] == guard_fails true by construction.
  TranslatorStats& tstats = translator_->stats();
  const auto deopt = [&tstats](trace::DeoptReason reason) {
    ++tstats.guard_fails;
    ++tstats.deopt[static_cast<std::size_t>(reason)];
  };
  if (block->dead || block->root_ppn != root_ppn_) {
    deopt(trace::DeoptReason::kStaleBlock);
    return false;
  }
  tlb::Tlb::Entry* entry = block->itlb_entry;
  if (!(entry->valid && entry->vpn == block->vpn &&
        entry->asid_root == block->root_ppn &&
        entry->pte.raw() == block->pte_raw &&
        entry->phys_page == block->phys_page)) {
    // The pinned entry no longer covers the page. It may simply have been
    // refilled into another slot after a flush — re-pin it.
    entry = itlb_.Probe(block->root_ppn, block->head_pc);
    if (entry == nullptr) {
      // Genuine TLB miss: deopt so the interpreter takes the real miss.
      deopt(trace::DeoptReason::kItlbMiss);
      return false;
    }
    if (entry->pte.raw() != block->pte_raw ||
        entry->phys_page != block->phys_page) {
      // Remapped or re-keyed: the decoded bytes/permissions are stale.
      translator_->Retire(block);
      deopt(trace::DeoptReason::kPageRemap);
      return false;
    }
    block->itlb_entry = entry;
  }
  if (code_table_ptr_->Version(block->phys_page) != block->code_version) {
    translator_->Retire(block);  // self- or cross-hart-modified code
    deopt(trace::DeoptReason::kCodeVersion);
    return false;
  }
  for (LineGuard& guard : block->lines) {
    if (guard.line->valid && guard.line->tag == guard.tag) continue;
    cache::Cache::Line* line = icache_.Probe(guard.phys);
    if (line == nullptr) {
      // Evicted: deopt so the interpreter performs the real refill.
      deopt(trace::DeoptReason::kIcacheLine);
      return false;
    }
    guard.line = line;
  }
  block->valid_epoch = code_table_ptr_->guard_epoch();
  return true;
}

// The threaded micro-op executor. Pre-decoded ops dispatch through one
// compact switch and run the interpreter's own semantics: ALU ops and
// branch conditions through ExecuteAlu/BranchTaken, plain loads, ld.ro and
// stores through one site-memoized form of MemAccess, everything else
// through ExecuteDecoded. The per-op bookkeeping is batched:
//
//   * fetch side — every replayed op is one I-TLB hit plus one I-cache
//     hit, and nothing inside the run touches either structure (data
//     accesses go to the D-side, traps/ecalls end the run): stamp each
//     line's final LRU tick in the loop, commit counts/hints once at the
//     end;
//   * retire side — each inline op costs (fetch_cycles + 1) cycles plus
//     per-op extras (mul/div latency, taken branches, D-TLB walk and
//     D-cache miss cycles) and retires one instruction; the sums land in
//     stats_ at exit. Counter updates are pure +=, so batching commutes
//     and the committed totals are bit-identical to per-op updates.
//
// pc_ is materialized lazily (inline ops never read it; kAuipc and branch
// targets use the pre-decoded op.pc) and synced before anything that
// observes it: the generic-op fallback, trap delivery, and block exit.
// The generic fallback (ExecuteDecoded, which does its own accounting)
// takes ecall/ebreak, any opcode without an inline case, and ld.ro while
// the kRoLoad event category is live.
StepEvent Cpu::ExecuteBlock(TranslatedBlock* block, std::uint64_t target) {
  TranslatedOp* ops = block->ops.data();  // non-const: per-site memo re-arming
  const LineGuard* lines = block->lines.data();
  const std::size_t count = block->ops.size();
  const std::uint64_t icache_base = icache_.replay_base();
  const unsigned fetch_cycles = config_.icache.hit_cycles;
  // Run() only enters with instructions < target, so remaining >= 1.
  const std::uint64_t remaining = target - stats_.instructions;
  const std::size_t limit =
      remaining < count ? static_cast<std::size_t>(remaining) : count;

  std::uint64_t fast_ops = 0;      // ops retired by the inline cases below
  std::uint64_t extra_cycles = 0;  // their cycles beyond (fetch_cycles + 1)
  std::size_t done = 0;            // ops whose fetch replayed (incl. traps)
  std::uint64_t next_pc = pc_;     // architectural pc after the last op
  StepEvent result = StepEvent::kRetired;
  // Hoisted hot members: the inline memory ops below store through
  // byte/line/entry pointers the compiler must assume alias `this`, so
  // reading these once keeps every later use a register instead of a
  // reload. All are loop-invariant (no op mutates them; a store that
  // remaps pages can only do so via a trap, which exits the run).
  const std::uint64_t root = root_ppn_;
  mem::PhysMemory* const memory = memory_;
  CodeVersionTable* const code_table = code_table_ptr_;
  // ld.ro with the kRoLoad event category live must emit one kRoLoadCheck
  // event per executed site with the site pc — exactly what the reference
  // executor does — so those ops take the generic fallback below.
  const bool ro_generic =
      trace_ != nullptr && trace_->enabled(trace::EventCategory::kRoLoad);

  // Batched D-side hit bookkeeping (see Tlb/Cache ReplaySiteHitAt): site
  // hits stamp LRU ticks from a base read when the batch opens and commit
  // hit counts + tick advances in bulk. Any generic lookup would observe
  // the shared tick, so the batch is flushed first (after which the next
  // site hit re-reads the base).
  // The bases are re-read after every generic lookup/access (which bumps
  // the shared tick behind the batch's back), so a stamp is always
  // base + 1-based index with no per-hit branch.
  std::uint64_t dtlb_pending = 0;
  std::uint64_t dtlb_base = dtlb_.replay_base();
  std::uint64_t dc_pending = 0;
  std::uint64_t dc_base = dcache_.replay_base();
  auto flush_mem = [&] {
    if (dtlb_pending != 0) {
      dtlb_.CommitReplayBatch(dtlb_pending);
      dtlb_pending = 0;
    }
    if (dc_pending != 0) {
      dcache_.CommitReplayBatch(dc_pending);
      dc_pending = 0;
    }
  };

  auto count_trap_exit = [&] {
    if (pending_trap_.cause == isa::TrapCause::kRoLoadPageFault) {
      ++translator_->stats().roload_fault_exits;
    } else {
      ++translator_->stats().trap_exits;
    }
  };
  // Trap from an inline memory op: the op's fetch replayed and its cycles
  // are charged, but it does not retire and pc stays at the faulting
  // instruction — exactly the reference MemAccess-failure path.
  auto trap_exit = [&](std::size_t idx, isa::TrapCause cause,
                       std::uint64_t tval, unsigned cycles) {
    RaiseTrap(cause, tval);
    stats_.cycles += cycles + 1;
    done = idx + 1;
    next_pc = ops[idx].pc;
    result = StepEvent::kTrap;
    count_trap_exit();
  };

  // Generic micro-op: the reference executor, which needs pc_ live and the
  // pending D-side batches flushed. False ends the run: a trap or ecall
  // (the op and its fetch happened), or a retired op whose successor is
  // not the next op of the superblock. Forced inline (as is mem_op): an
  // out-of-line call would take the address of every local it captures
  // and keep the hot loop's counters in memory.
  auto generic_op = [&](std::size_t i) __attribute__((always_inline))
                        -> bool {
    flush_mem();
    pc_ = ops[i].pc;
    const StepEvent event = ExecuteDecoded(ops[i].inst, fetch_cycles);
    // Its data access moved the shared ticks.
    dtlb_base = dtlb_.replay_base();
    dc_base = dcache_.replay_base();
    if (event == StepEvent::kRetired &&
        (i + 1 == count || pc_ == ops[i + 1].pc)) {
      return true;
    }
    if (event == StepEvent::kTrap) count_trap_exit();
    result = event;
    done = i + 1;
    next_pc = pc_;
    return false;
  };

  // One site-memoized memory micro-op: MemAccess for access type A, with
  // the op's last D-TLB entry and D-cache line as inline caches. A memo is
  // re-proven against the current access before its hit is replayed (tag
  // and permission bits — side-effect-free reads, so checking them up
  // front commutes with the reference order); otherwise the generic
  // lookup runs and re-arms it. False ends the run: a trap, or a store
  // into this block's own code page.
  auto mem_op = [&]<tlb::AccessType A>(std::size_t i, std::uint64_t rs1,
                                       std::uint64_t rs2)
                    __attribute__((always_inline)) -> bool {
    constexpr bool kStore = A == tlb::AccessType::kStore;
    constexpr bool kRoLoad = A == tlb::AccessType::kRoLoad;
    if constexpr (kRoLoad) {
      if (ro_generic) return generic_op(i);
    }
    TranslatedOp& op = ops[i];
    const isa::Instruction& inst = op.inst;
    // ROLoad-family addresses are (rs1) with no offset; inst.imm is 0 for
    // them by decode construction, so the same expression serves all.
    const std::uint64_t addr = rs1 + static_cast<std::uint64_t>(inst.imm);
    if constexpr (kStore) {
      ++stats_.stores;
    } else {
      ++stats_.loads;
      if constexpr (kRoLoad) ++stats_.roload_loads;
    }
    unsigned mem_cycles = 0;  // D-TLB walk + D-cache cycles beyond fetch
    const unsigned bytes = op.mem_bytes;
    if ((addr & (bytes - 1)) != 0) {
      trap_exit(i,
                kStore ? isa::TrapCause::kStoreAddressMisaligned
                       : isa::TrapCause::kLoadAddressMisaligned,
                addr, fetch_cycles);
      return false;
    }
    std::uint64_t phys;
    tlb::Tlb::Entry* te = op.dtlb_memo;
    // ld.ro's memo has no up-front permission test: its key-checked
    // datapath runs *after* the hit stamp (reference order) and exactly
    // once per executed site — it mutates the key-check census.
    if (te != nullptr && te->valid &&
        te->vpn == (addr >> mem::kPageShift) && te->asid_root == root &&
        (kRoLoad ||
         ((kStore ? te->pte.writable() : te->pte.readable()) &&
          te->pte.user()))) {
      dtlb_.ReplaySiteHitAt<A>(te, dtlb_base + ++dtlb_pending);
      if constexpr (kRoLoad) {
        tlb::RoLoadFailKind fail_kind = tlb::RoLoadFailKind::kNone;
        if (auto cause =
                dtlb_.RoSitePermissions(te->pte, inst.key, &fail_kind)) {
          // EmitRoLoadFault is structurally disabled here (ro_generic
          // tested the same predicate above), so skipping it is exact;
          // the trap itself is the reference failure path.
          trap_exit(i, *cause, addr, fetch_cycles);
          return false;
        }
      }
      phys = (te->phys_page << mem::kPageShift) +
             (addr & (mem::kPageSize - 1));
    } else {
      flush_mem();
      ++translator_->stats().dtlb_memo_misses;
      const auto xlat = dtlb_.TranslateFor<A>(root, addr, inst.key);
      op.dtlb_memo = dtlb_.site_hint(A);
      dtlb_base = dtlb_.replay_base();
      mem_cycles += xlat.cycles;
      if (!xlat.ok) {
        trap_exit(i, xlat.cause, addr, fetch_cycles + mem_cycles);
        return false;
      }
      phys = xlat.phys_addr;
    }
    if (!memory->Contains(phys, bytes)) {
      trap_exit(i,
                kStore ? isa::TrapCause::kStoreAccessFault
                       : isa::TrapCause::kLoadAccessFault,
                addr, fetch_cycles + mem_cycles);
      return false;
    }
    const std::uint64_t line_addr = dcache_.LineAddrOf(phys);
    cache::Cache::Line* dl = op.dline_memo;
    if (dl != nullptr && line_addr == op.dline_addr && dl->valid &&
        dl->tag == op.dline_tag) {
      mem_cycles += dcache_.ReplayDataHitAt(dl, line_addr, kStore,
                                            dc_base + ++dc_pending);
    } else {
      flush_mem();
      ++translator_->stats().dcache_memo_misses;
      mem_cycles += dcache_.Access(phys, kStore);
      op.dline_memo = dcache_.site_hint();
      op.dline_addr = line_addr;
      op.dline_tag = dcache_.TagOf(phys);
      dc_base = dcache_.replay_base();
    }
    ++fast_ops;
    extra_cycles += mem_cycles;
    if constexpr (kStore) {
      memory->WriteUnchecked(phys, bytes, rs2);
      code_table->OnWrite(phys);
      if (code_table->Version(block->phys_page) != block->code_version) {
        // The block stored into its own code page: everything executed
        // so far is exact, but the remaining decodes are stale. Stop at
        // this boundary; the next entry attempt rebuilds fresh.
        translator_->Retire(block);
        ++translator_->stats().smc_exits;
        done = i + 1;
        next_pc = op.pc + inst.length;
        return false;
      }
    } else {
      std::uint64_t raw = memory->ReadUnchecked(phys, bytes);
      if (!op.load_unsigned && bytes < 8) {
        raw = static_cast<std::uint64_t>(SignExtend(raw, bytes * 8));
      }
      if (inst.rd != 0) regs_[inst.rd] = raw;
    }
    return true;
  };

  for (std::size_t i = 0; i < limit; ++i) {
    TranslatedOp& op = ops[i];
    lines[op.line_index].line->lru_tick = icache_base + i + 1;
    const isa::Instruction& inst = op.inst;
    const std::uint64_t rs1 = regs_[inst.rs1];
    const std::uint64_t rs2 = regs_[inst.rs2];
    using isa::Opcode;
    switch (inst.op) {
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu: {
        ++stats_.branches;
        std::uint64_t branch_pc = op.pc + inst.length;
        if (BranchTaken(inst.op, rs1, rs2)) {
          ++stats_.taken_branches;
          extra_cycles += config_.taken_branch_cycles;
          branch_pc = op.pc + static_cast<std::uint64_t>(inst.imm);
        }
        ++fast_ops;
        if (i + 1 < count && branch_pc == ops[i + 1].pc) continue;
        done = i + 1;
        next_pc = branch_pc;
        goto exit;  // diverged from the superblock (or block end)
      }
      case Opcode::kJal:
        // Unconditional transfers end the superblock; retire inline and
        // exit. The link register is written after the target is formed
        // so jalr with rd == rs1 reads the pre-link value, exactly as the
        // reference executor does.
        if (inst.rd != 0) regs_[inst.rd] = op.pc + inst.length;
        extra_cycles += config_.taken_branch_cycles;
        ++fast_ops;
        done = i + 1;
        next_pc = op.pc + static_cast<std::uint64_t>(inst.imm);
        goto exit;
      case Opcode::kJalr: {
        const std::uint64_t jalr_target =
            (rs1 + static_cast<std::uint64_t>(inst.imm)) & ~std::uint64_t{1};
        if (inst.rd != 0) regs_[inst.rd] = op.pc + inst.length;
        extra_cycles += config_.taken_branch_cycles;
        ++stats_.indirect_jumps;
        ++fast_ops;
        done = i + 1;
        next_pc = jalr_target;
        goto exit;
      }
      case Opcode::kLb:
      case Opcode::kLh:
      case Opcode::kLw:
      case Opcode::kLd:
      case Opcode::kLbu:
      case Opcode::kLhu:
      case Opcode::kLwu:
        if (!mem_op.template operator()<tlb::AccessType::kLoad>(i, rs1, rs2)) {
          goto exit;
        }
        continue;
      case Opcode::kLbRo:
      case Opcode::kLhRo:
      case Opcode::kLwRo:
      case Opcode::kLdRo:
      case Opcode::kCLdRo:
        if (!mem_op.template operator()<tlb::AccessType::kRoLoad>(i, rs1,
                                                                  rs2)) {
          goto exit;
        }
        continue;
      case Opcode::kSb:
      case Opcode::kSh:
      case Opcode::kSw:
      case Opcode::kSd:
        if (!mem_op.template operator()<tlb::AccessType::kStore>(i, rs1,
                                                                 rs2)) {
          goto exit;
        }
        continue;
      case Opcode::kFence:
        ++fast_ops;
        continue;
      default: {
        std::uint64_t rd_value;
        unsigned alu_cycles = 0;
        if (ExecuteAlu(inst, rs1, rs2, op.pc, config_, &rd_value,
                       &alu_cycles)) {
          if (inst.rd != 0) regs_[inst.rd] = rd_value;
          extra_cycles += alu_cycles;
          ++fast_ops;
          continue;
        }
        if (!generic_op(i)) goto exit;
        continue;
      }
    }
  }
  // Loop exhausted (block end or budget): every `continue` path above left
  // the architectural pc at the straight-line successor of the op it
  // executed — a branch or generic op only continues when its target
  // equals the next op's pc, which for consecutive decodes is pc + length.
  done = limit;
  {
    const TranslatedOp& last_op = ops[limit - 1];
    next_pc = last_op.pc + last_op.inst.length;
  }
exit:
  if (fast_ops != 0) {
    stats_.instructions += fast_ops;
    stats_.cycles += fast_ops * (fetch_cycles + 1) + extra_cycles;
  }
  flush_mem();
  pc_ = next_pc;
  if (done != 0) {
    itlb_.ReplayFetchHits(block->itlb_entry, done);
    icache_.CommitReplayBatch(done);
    const TranslatedOp& last = ops[done - 1];
    icache_.ReplayHint(lines[last.line_index].line, last.fetch_phys);
    translator_->stats().ops_replayed += done;
    if (block->jit != nullptr) block->jit->replayed += done;
  }
  return result;
}

void Cpu::AppendJitReport(trace::JitReport* report, unsigned hart) const {
  report->total_instructions += stats_.instructions;
  if (translator_ == nullptr) return;
  ++report->harts;
  const TranslatorStats& s = translator_->stats();
  report->blocks_built += s.blocks_built;
  report->blocks_retired += s.blocks_retired;
  report->block_entries += s.block_entries;
  report->chained_entries += s.chained_entries;
  report->guard_fails += s.guard_fails;
  report->ops_replayed += s.ops_replayed;
  report->invalidations += s.invalidations;
  report->evictions += s.evictions;
  for (std::size_t r = 0; r < trace::kNumDeoptReasons; ++r) {
    report->deopt[r] += s.deopt[r];
  }
  report->chain_breaks += s.chain_breaks;
  report->dtlb_memo_misses += s.dtlb_memo_misses;
  report->dcache_memo_misses += s.dcache_memo_misses;
  report->roload_fault_exits += s.roload_fault_exits;
  report->trap_exits += s.trap_exits;
  report->smc_exits += s.smc_exits;
  for (const auto& [key, block_stats] : translator_->jit_blocks()) {
    trace::JitBlockRow row;
    row.root_ppn = key.first;
    row.head_pc = key.second;
    row.hart = hart;
    row.builds = block_stats.builds;
    row.retires = block_stats.retires;
    row.entries = block_stats.entries;
    row.chained = block_stats.chained;
    row.replayed = block_stats.replayed;
    report->blocks.push_back(std::move(row));
  }
}

bool Cpu::DebugReadVirt(std::uint64_t virt_addr, unsigned bytes,
                        std::uint64_t* value) {
  mem::PageWalker walker(memory_);
  auto walk = walker.Walk(root_ppn_, virt_addr);
  if (!walk || !memory_->Contains(walk->phys_addr, bytes)) return false;
  *value = memory_->Read(walk->phys_addr, bytes);
  return true;
}

bool Cpu::DebugWriteVirt(std::uint64_t virt_addr, unsigned bytes,
                         std::uint64_t value) {
  mem::PageWalker walker(memory_);
  auto walk = walker.Walk(root_ppn_, virt_addr);
  if (!walk || !memory_->Contains(walk->phys_addr, bytes)) return false;
  memory_->Write(walk->phys_addr, bytes, value);
  if (code_table_ptr_ != nullptr) {
    // Debug/attack writes need not be size-aligned; cover both end pages.
    code_table_ptr_->OnWrite(walk->phys_addr);
    code_table_ptr_->OnWrite(walk->phys_addr + bytes - 1);
  }
  return true;
}

}  // namespace roload::cpu
