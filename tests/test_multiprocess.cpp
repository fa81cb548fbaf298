// Multi-process scheduling tests: address-space isolation under keys, the
// no-flush ASID-tagged TLB on context switch, and the Related-Work claim
// that ROLoad adds no per-process architectural state.
#include <gtest/gtest.h>

#include "support/strings.h"
#include "tests/guest_util.h"

namespace roload::kernel {
namespace {

// A process that loops `iters` times accumulating, writes its tag via
// ld.ro from its own keyed allowlist every iteration, and exits with
// (tag + iters) & 63.
std::string KeyedWorker(unsigned tag, unsigned key, unsigned iters) {
  return StrFormat(R"(
.section .text
_start:
  li s0, %u          # remaining iterations
  li s2, 0           # accumulator
loop:
  la t0, my_tag
  ld.ro t1, (t0), %u
  add s2, s2, t1
  addi s0, s0, -1
  bnez s0, loop
  andi a0, s2, 63
  li a7, 93
  ecall
.section .rodata.key.%u
my_tag:
  .quad %u
)",
                   iters, key, key, tag);
}

class MultiProcessTest : public ::testing::Test {
 protected:
  MultiProcessTest() : system_(core::SystemConfig{}) {}

  int MustLoad(const std::string& source) {
    auto image = asmtool::Assemble(source);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    auto pid = system_.kernel().LoadProcess(*image);
    EXPECT_TRUE(pid.ok()) << pid.status().ToString();
    return pid.ok() ? *pid : -1;
  }

  core::System system_;
};

TEST_F(MultiProcessTest, TwoProcessesInterleaveAndBothFinish) {
  MustLoad(KeyedWorker(/*tag=*/1, /*key=*/101, /*iters=*/500));
  MustLoad(KeyedWorker(/*tag=*/2, /*key=*/102, /*iters=*/500));
  auto results = system_.kernel().RunAll(/*slice=*/100,
                                         /*total_limit=*/1 << 22);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].kind, ExitKind::kExited);
  EXPECT_EQ(results[1].kind, ExitKind::kExited);
  EXPECT_EQ(results[0].exit_code, (1 * 500) & 63);
  EXPECT_EQ(results[1].exit_code, (2 * 500) & 63);
  // Slices of 100 instructions over ~3000-instruction processes: many
  // genuine context switches happened.
  EXPECT_GT(system_.kernel().context_switches(), 10u);
}

TEST_F(MultiProcessTest, KeysAreScopedPerAddressSpace) {
  // Both processes use THE SAME key for DIFFERENT data: keys are a
  // property of each process's page tables, so there is no cross-process
  // interference (no global key registry to virtualize — a deployment
  // property the paper's design implies).
  MustLoad(KeyedWorker(/*tag=*/5, /*key=*/200, /*iters=*/300));
  MustLoad(KeyedWorker(/*tag=*/9, /*key=*/200, /*iters=*/300));
  auto results = system_.kernel().RunAll(/*slice=*/64,
                                         /*total_limit=*/1 << 22);
  EXPECT_EQ(results[0].exit_code, (5 * 300) & 63);
  EXPECT_EQ(results[1].exit_code, (9 * 300) & 63);
}

TEST_F(MultiProcessTest, TlbIsolationWithoutShootdown) {
  // The two processes map the same virtual address to different frames;
  // the TLB tags entries by translation root, so both stay resident and
  // correct across switches (the scheduler never calls FlushTlbs).
  MustLoad(KeyedWorker(1, 101, 400));
  MustLoad(KeyedWorker(2, 102, 400));
  system_.kernel().RunAll(/*slice=*/50, /*total_limit=*/1 << 22);
  const auto& stats = system_.cpu().dtlb_stats();
  // Two processes x (1 rodata page + stack page) stay cached: misses stay
  // near the cold-start count instead of scaling with switch count.
  EXPECT_LT(stats.misses, 64u);
  EXPECT_GT(system_.kernel().context_switches(), 10u);
  EXPECT_EQ(stats.flushes, 0u);
}

TEST_F(MultiProcessTest, FaultInOneProcessDoesNotKillOthers) {
  MustLoad(KeyedWorker(1, 101, 300));
  // Second process ld.ro's with the wrong key -> dies with SIGSEGV.
  MustLoad(KeyedWorker(2, 102, 300) + "\n");
  // Corrupt: rebuild the second with a mismatched instruction key.
  core::System fresh;
  auto good = asmtool::Assemble(KeyedWorker(1, 101, 300));
  auto bad = asmtool::Assemble(StrFormat(R"(
.section .text
_start:
  la t0, my_tag
  ld.ro a0, (t0), 999
  li a7, 93
  ecall
.section .rodata.key.111
my_tag: .quad 7
)"));
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(fresh.kernel().LoadProcess(*good).ok());
  ASSERT_TRUE(fresh.kernel().LoadProcess(*bad).ok());
  auto results = fresh.kernel().RunAll(/*slice=*/64,
                                       /*total_limit=*/1 << 22);
  EXPECT_EQ(results[0].kind, ExitKind::kExited);
  EXPECT_EQ(results[0].exit_code, 300 & 63);
  EXPECT_EQ(results[1].kind, ExitKind::kKilled);
  EXPECT_TRUE(results[1].roload_violation);
}

TEST_F(MultiProcessTest, StdoutIsPerProcess) {
  auto writer = [](const char* text) {
    return StrFormat(R"(
.section .text
_start:
  li a0, 1
  la a1, msg
  li a2, 3
  li a7, 64
  ecall
  li a0, 0
  li a7, 93
  ecall
.section .rodata
msg: .asciz "%s"
)",
                     text);
  };
  core::System fresh;
  auto a = asmtool::Assemble(writer("AAA"));
  auto b = asmtool::Assemble(writer("BBB"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fresh.kernel().LoadProcess(*a).ok());
  ASSERT_TRUE(fresh.kernel().LoadProcess(*b).ok());
  auto results = fresh.kernel().RunAll(4, 1 << 20);
  EXPECT_EQ(results[0].stdout_text, "AAA");
  EXPECT_EQ(results[1].stdout_text, "BBB");
}

TEST_F(MultiProcessTest, ResultsCountEveryInstructionOfTheCall) {
  MustLoad(KeyedWorker(1, 101, 300));
  MustLoad(KeyedWorker(2, 102, 300));
  // A budget that runs out mid-slice: the scheduler stops exactly on it.
  auto partial = system_.kernel().RunAll(/*slice=*/64, /*total_limit=*/1000);
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_EQ(partial[0].kind, ExitKind::kInstructionLimit);
  EXPECT_EQ(partial[0].instructions + partial[1].instructions, 1000u);
  // Each process's result covers all of its slices in the call, not the
  // last one only.
  auto rest = system_.kernel().RunAll(/*slice=*/64, /*total_limit=*/1 << 22);
  EXPECT_EQ(rest[0].kind, ExitKind::kExited);
  EXPECT_EQ(rest[1].kind, ExitKind::kExited);
  EXPECT_EQ(1000 + rest[0].instructions + rest[1].instructions,
            system_.cpu().stats().instructions);
}

TEST_F(MultiProcessTest, SingleProcessApiStillWorks) {
  // The legacy Load/Run pair must behave exactly as before on top of the
  // multi-process internals.
  auto image = asmtool::Assemble(KeyedWorker(3, 300, 100));
  ASSERT_TRUE(image.ok());
  core::System fresh;
  ASSERT_TRUE(fresh.Load(*image).ok());
  const auto result = fresh.Run();
  EXPECT_EQ(result.kind, ExitKind::kExited);
  EXPECT_EQ(result.exit_code, (3 * 100) & 63);
}

}  // namespace
}  // namespace roload::kernel
