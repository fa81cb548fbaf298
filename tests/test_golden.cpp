// Golden-run fixture: whole-run results of the SPEC-like suite, the RPC
// server, the attack grid and a two-process schedule, compared field by
// field (cycles, instructions, exit kind and code, faulting hart and pc,
// stdout, every counter) against files under tests/data/golden/. The
// fixture pins the machine, loader and scheduler to the results they gave
// before the single-hart System and the SMP machine became one class.
//
// Re-recording is deliberate, never automatic:
//   ROLOAD_GOLDEN_RECORD=1 ./roload_tests --gtest_filter='GoldenTest.*'
// rewrites the fixture from the current build.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asmtool/assembler.h"
#include "core/system.h"
#include "core/toolchain.h"
#include "sec/attack.h"
#include "smp/machine.h"
#include "support/json.h"
#include "support/json_parse.h"
#include "support/strings.h"
#include "workloads/spec_like.h"

namespace roload {
namespace {

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

std::string GoldenPath(const std::string& group) {
  return std::string(ROLOAD_TESTS_DATA_DIR) + "/golden/" + group + ".json";
}

const char* KindName(kernel::ExitKind kind) {
  switch (kind) {
    case kernel::ExitKind::kExited:
      return "exited";
    case kernel::ExitKind::kKilled:
      return "killed";
    case kernel::ExitKind::kInstructionLimit:
      return "limit";
  }
  return "?";
}

void WriteCounters(JsonWriter* json, const Counters& counters) {
  json->Key("counters").BeginObject();
  for (const auto& [name, value] : counters) json->KV(name, value);
  json->EndObject();
}

void WriteResult(JsonWriter* json, const kernel::RunResult& run) {
  json->KV("kind", KindName(run.kind))
      .KV("exit_code", run.exit_code)
      .KV("signal", run.signal)
      .KV("roload_violation", run.roload_violation)
      .KV("hart", static_cast<std::uint64_t>(run.hart))
      .KV("fault_pc", run.fault_pc)
      .KV("fault_addr", run.fault_addr)
      .KV("instructions", run.instructions)
      .KV("cycles", run.cycles)
      .KV("peak_mem_kib", run.peak_mem_kib)
      .KV("stdout", run.stdout_text);
}

// Writes the fixture in record mode; otherwise compares `json` against
// it leaf by leaf and reports the first differing paths.
void CheckGolden(const std::string& group, const JsonWriter& json) {
  const std::string path = GoldenPath(group);
  if (std::getenv("ROLOAD_GOLDEN_RECORD") != nullptr) {
    std::ofstream out(path);
    out << json.str() << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream text;
  text << in.rdbuf();
  auto expected = ParseJson(text.str());
  auto actual = ParseJson(json.str());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  std::vector<JsonLeaf> want, got;
  FlattenJson(*expected, "", &want);
  FlattenJson(*actual, "", &got);
  int reported = 0;
  const std::size_t n = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < n && reported < 20; ++i) {
    if (want[i].path != got[i].path || want[i].number != got[i].number ||
        want[i].text != got[i].text) {
      ADD_FAILURE() << group << ": expected " << want[i].path << " = "
                    << (want[i].is_number ? std::to_string(want[i].number)
                                          : want[i].text)
                    << ", got " << got[i].path << " = "
                    << (got[i].is_number ? std::to_string(got[i].number)
                                         : got[i].text);
      ++reported;
    }
  }
  EXPECT_EQ(want.size(), got.size()) << group << ": leaf count differs";
}

core::BuildResult MustBuild(const workloads::WorkloadSpec& spec,
                            core::Defense defense) {
  core::BuildOptions options;
  options.defense = defense;
  auto build = core::Build(workloads::Generate(spec), options);
  EXPECT_TRUE(build.ok()) << build.status().ToString();
  return std::move(*build);
}

// One run row: the machine-level result, the per-hart results on SMP
// machines, and the full counter snapshot.
void WriteRunRow(JsonWriter* json, const std::string& name,
                 const core::BuildResult& build, unsigned harts) {
  json->Key(name).BeginObject();
  if (harts == 1) {
    core::System system;
    ASSERT_TRUE(system.Load(build.image).ok());
    WriteResult(json, system.Run());
    WriteCounters(json, system.trace().counters().Snapshot());
  } else {
    smp::SmpConfig config;
    config.harts = harts;
    smp::Machine machine(config);
    ASSERT_TRUE(machine.Load(build.image).ok());
    WriteResult(json, machine.Run());
    json->Key("harts").BeginArray();
    for (const kernel::RunResult& hart : machine.hart_results()) {
      json->BeginObject()
          .KV("kind", KindName(hart.kind))
          .KV("exit_code", hart.exit_code)
          .KV("hart", static_cast<std::uint64_t>(hart.hart))
          .KV("instructions", hart.instructions)
          .KV("cycles", hart.cycles)
          .EndObject();
    }
    json->EndArray();
    WriteCounters(json, machine.trace().counters().Snapshot());
  }
  json->EndObject();
}

constexpr core::Defense kAllDefenses[] = {
    core::Defense::kNone, core::Defense::kVCall, core::Defense::kVTint,
    core::Defense::kICall, core::Defense::kClassicCfi};

TEST(GoldenTest, SpecLikeSuiteOnOneHart) {
  JsonWriter json;
  json.BeginObject();
  for (const workloads::WorkloadSpec& spec :
       workloads::SpecCint2006Suite(0.05)) {
    for (core::Defense defense : kAllDefenses) {
      const core::BuildResult build = MustBuild(spec, defense);
      WriteRunRow(&json,
                  spec.name + "/" + std::string(core::DefenseName(defense)),
                  build, 1);
    }
  }
  json.EndObject();
  CheckGolden("spec_h1", json);
}

TEST(GoldenTest, RpcServerAcrossHartCounts) {
  const core::BuildResult build =
      MustBuild(workloads::RpcServerWorkload(), core::Defense::kICall);
  JsonWriter json;
  json.BeginObject();
  for (unsigned harts : {1u, 2u, 4u}) {
    WriteRunRow(&json, StrFormat("rpc_server/ICall/h%u", harts), build,
                harts);
  }
  json.EndObject();
  CheckGolden("rpc_server", json);
}

TEST(GoldenTest, AttackGridOnOneAndFourHarts) {
  JsonWriter json;
  json.BeginObject();
  for (unsigned harts : {1u, 4u}) {
    for (sec::AttackKind kind :
         {sec::AttackKind::kVtableInjection,
          sec::AttackKind::kVtableReuseCrossHierarchy,
          sec::AttackKind::kFnPtrCorruptToEvil,
          sec::AttackKind::kFnPtrReuseSameType}) {
      for (core::Defense defense :
           {core::Defense::kNone, core::Defense::kVCall,
            core::Defense::kICall}) {
        auto result = harts == 1 ? sec::RunAttack(kind, defense)
                                 : sec::RunAttackSmp(kind, defense, harts);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        json.Key(StrFormat("%s/%s/h%u",
                           std::string(sec::AttackKindName(kind)).c_str(),
                           std::string(core::DefenseName(defense)).c_str(),
                           harts))
            .BeginObject()
            .KV("outcome", sec::AttackOutcomeName(result->outcome))
            .KV("classification", result->classification)
            .KV("roload_violation", result->roload_violation)
            .KV("signal", result->signal)
            .KV("exit_code", result->exit_code)
            .KV("hart", static_cast<std::uint64_t>(result->hart))
            .KV("fault_pc", result->fault_pc)
            .KV("fault_va", result->fault_va)
            .KV("inst_key", static_cast<std::uint64_t>(result->inst_key))
            .KV("pte_key", static_cast<std::uint64_t>(result->pte_key));
        WriteCounters(&json, result->counters);
        json.EndObject();
      }
    }
  }
  json.EndObject();
  CheckGolden("attacks", json);
}

// Two processes with their own keyed allowlists, one of which also writes
// to stdout, time-sliced on one hart. Per-process instruction counts are
// left out: they are the multi-process scheduler's per-call totals, which
// the pre-fold scheduler reported for the last slice only.
TEST(GoldenTest, TwoProcessSchedule) {
  auto worker = [](unsigned tag, unsigned key, unsigned iters) {
    return StrFormat(R"(
.section .text
_start:
  li a0, 1
  la a1, msg
  li a2, 4
  li a7, 64
  ecall
  li s0, %u
  li s2, 0
loop:
  la t0, my_tag
  ld.ro t1, (t0), %u
  add s2, s2, t1
  addi s0, s0, -1
  bnez s0, loop
  andi a0, s2, 63
  li a7, 93
  ecall
.section .rodata
msg: .asciz "P%u\n"
.section .rodata.key.%u
my_tag:
  .quad %u
)",
                     iters, key, tag, key, tag);
  };
  core::System system;
  for (unsigned p : {1u, 2u}) {
    auto image = asmtool::Assemble(worker(p, 100 + p, 400 * p));
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    ASSERT_TRUE(system.kernel().LoadProcess(*image).ok());
  }
  const std::vector<kernel::RunResult> results =
      system.kernel().RunAll(/*slice=*/100, /*total_limit=*/1 << 22);
  JsonWriter json;
  json.BeginObject();
  json.Key("processes").BeginArray();
  for (const kernel::RunResult& result : results) {
    json.BeginObject()
        .KV("kind", KindName(result.kind))
        .KV("exit_code", result.exit_code)
        .KV("stdout", result.stdout_text)
        .EndObject();
  }
  json.EndArray();
  json.KV("context_switches", system.kernel().context_switches());
  WriteCounters(&json, system.trace().counters().Snapshot());
  json.EndObject();
  CheckGolden("two_process", json);
}

}  // namespace
}  // namespace roload
