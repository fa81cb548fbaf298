// The repository's end-to-end benchmark: host wall clock from workload to
// verdict (generate -> harden -> codegen -> assemble -> load -> run ->
// export) on four workloads, through the public API with its defaults.
// perfbench/README.md describes the workloads, metrics and predictions;
// perfbench/run.py builds this program and runs it.
//
//   roload_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --data DIR [--spans-out FILE] [--write-expected]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace
// 1 alternates untraced and traced rounds and reports the per-layer ones.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "asmtool/image_io.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "core/toolchain.h"
#include "sec/attack.h"
#include "smp/machine.h"
#include "spans.h"
#include "support/json.h"
#include "support/json_parse.h"
#include "support/rng.h"
#include "trace/session.h"
#include "traced.h"
#include "workloads/spec_like.h"

namespace perfbench {
namespace {

using namespace roload;

// Taken during static initialization, i.e. right after the process is
// loaded: the start of setup_s.
const Clock::time_point kProcessStart = Clock::now();

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetUps = 5;           // setup_s is the median of these
constexpr unsigned kGridJobs = 2;    // eval_grid worker threads
constexpr double kGridScale = 0.5;   // the figure benches' default scale
// ~4-6M instructions per image: a ~1.5 s round, so a 25 s run has ~16
// rounds to take the median of (scale 8 gave ~6, and 10-17% spreads).
constexpr double kLongRunScale = 3;
// long_run widens each image's hot-loop body by this factor and divides
// its trip count by it, keeping the instruction count: with the suite's
// 32-op body one seed's random op mix moves an image's instruction count
// by up to ~10% (and a run's figures by ~30% across seeds); 256 ops
// average it down to ~2-4%.
constexpr unsigned kLongRunBodyFactor = 8;
// smp_rpc runs kRpcPrograms rpc_server images, each from its own derived
// seed. A round of one ~170 ms op splits into a fast and a host-contended
// mode, and a run's median jumps between them (ten seeds spread by ~25%);
// a 4-image round averages over the host's bursts, and over the ~4% by
// which one seed's 80 random handler ops move an image's instruction count.
constexpr unsigned kRpcPrograms = 4;
constexpr std::uint64_t kRpcRequests = 6000;
constexpr unsigned kRpcHarts = 4;
constexpr unsigned kAttackLoadHarts = 4;
constexpr int kMaxFailureLines = 20;

// Workload seeds derived from --seed. The generator embeds the seed in
// `li` immediates (workloads/spec_like.cpp), which must fit 32 bits, so a
// raw 64-bit support::DeriveSeed value fails to assemble; seeds are kept
// in [1, 2^20], the range of the suite's own seeds (401..483, 777).
std::uint64_t WorkloadSeed(std::uint64_t seed, std::uint64_t index) {
  return 1 + DeriveSeed(seed, index) % (1u << 20);
}

constexpr core::Defense kDefenses[] = {
    core::Defense::kNone, core::Defense::kVCall, core::Defense::kVTint,
    core::Defense::kICall, core::Defense::kClassicCfi};
constexpr sec::AttackKind kAttacks[] = {
    sec::AttackKind::kVtableInjection,
    sec::AttackKind::kVtableReuseCrossHierarchy,
    sec::AttackKind::kFnPtrCorruptToEvil,
    sec::AttackKind::kFnPtrReuseSameType};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};

CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

// The simulated outcome of one run, which every op must reproduce exactly.
struct Outcome {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::int64_t exit_code = 0;
  std::string stdout_text;

  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const core::RunMetrics& metrics) {
  return {metrics.cycles, metrics.instructions, metrics.exit_code,
          metrics.stdout_text};
}

std::string Describe(const Outcome& outcome) {
  std::ostringstream out;
  out << "cycles=" << outcome.cycles << " instructions="
      << outcome.instructions << " exit=" << outcome.exit_code
      << " stdout=" << outcome.stdout_text.size() << "B";
  return out.str();
}

using Outcomes = std::map<std::string, Outcome>;

// What one round of ops measured. A round is one pass over the workload's
// op set; the per-layer metrics are reported per round.
struct RoundResult {
  double wall_s = 0;               // the ops only (not the traced probes)
  std::vector<double> latency_ms;  // the workload's latency samples
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t instructions = 0;  // simulated, retired by the ops
};

void Fail(RoundResult* round, const std::string& op, const std::string& why) {
  static int lines = 0;
  ++round->failed;
  if (lines++ < kMaxFailureLines) {
    std::fprintf(stderr, "FAILED %s: %s\n", op.c_str(), why.c_str());
  }
}

SpanContext OpContext(int op) {
  SpanContext context = CurrentContext();
  context.op = op;
  return context;
}

class Workload {
 public:
  virtual ~Workload() = default;

  // One set-up: everything the timed ops consume but do not produce
  // (prebuilt images) plus a warm-up. Repeated; setup_s is the median.
  virtual void SetUp() = 0;
  // Whether the ops produce run outcomes checked against the reference
  // interpreter (attack_verdicts checks known answers instead).
  virtual bool checks_outcomes() const { return true; }
  // The run outcomes of this seed's ops on cpu::ExecTier::kInterp.
  virtual Status Reference(Outcomes* out) = 0;
  // One round; `traced` goes through the traced pipeline, recording spans
  // into the current context, op ids first_op, first_op + 1, ...
  virtual RoundResult Round(bool traced, int first_op) = 0;
  virtual std::size_t ops_per_round() const = 0;
  virtual std::string round_text() const = 0;
  // What one latency sample is ("op" unless a round is one sample).
  virtual const char* latency_text() const { return "op"; }

  void set_expected(Outcomes expected) { expected_ = std::move(expected); }

 protected:
  // The correctness gate for one run op: it must have exited normally with
  // the reference outcome, and a traced op must leave exactly the counter
  // snapshot its untraced twin left.
  void CheckRun(const std::string& op, const Status& status,
                const core::RunMetrics& metrics, bool traced,
                RoundResult* round) {
    ++round->ops;
    if (!status.ok()) return Fail(round, op, status.ToString());
    round->instructions += metrics.instructions;
    if (!metrics.completed) return Fail(round, op, "did not exit normally");
    const auto expected = expected_.find(op);
    if (expected == expected_.end()) {
      return Fail(round, op, "no reference outcome");
    }
    const Outcome outcome = OutcomeOf(metrics);
    if (outcome != expected->second) {
      return Fail(round, op,
                  Describe(outcome) + " != reference " +
                      Describe(expected->second));
    }
    if (!traced) {
      untraced_counters_[op] = metrics.counters;
      return;
    }
    const auto untraced = untraced_counters_.find(op);
    if (untraced == untraced_counters_.end() ||
        untraced->second != metrics.counters) {
      Fail(round, op, "traced counters differ from the untraced op's");
    }
  }

  Outcomes expected_;
  std::map<std::string, std::vector<std::pair<std::string, std::uint64_t>>>
      untraced_counters_;
};

// ---- eval_grid --------------------------------------------------------

std::string Export(const campaign::CampaignResult& result) {
  trace::TelemetrySession session(result.spec().name);
  result.FillSession(&session);
  return session.ToJson();
}

class EvalGrid : public Workload {
 public:
  explicit EvalGrid(std::uint64_t seed) {
    spec_.name = "eval_grid";
    spec_.workloads = workloads::SpecCint2006Suite(kGridScale);
    for (std::size_t i = 0; i < spec_.workloads.size(); ++i) {
      spec_.workloads[i].seed = WorkloadSeed(seed, i);
    }
    for (core::Defense defense : kDefenses) {
      spec_.configs.push_back(campaign::ForDefense(defense));
    }
    cells_ = campaign::Expand(spec_).size();
  }

  void SetUp() override {
    // Warm-up: the first cell, through the same calls as a pass.
    campaign::CampaignSpec warm = spec_;
    warm.workloads.resize(1);
    warm.configs.resize(1);
    Export(campaign::Run(warm, {.jobs = kGridJobs}));
  }

  Status Reference(Outcomes* out) override {
    std::vector<campaign::RunSpec> runs = campaign::Expand(spec_);
    for (campaign::RunSpec& run : runs) run.exec = cpu::ExecTier::kInterp;
    for (const campaign::RunOutcome& outcome :
         campaign::RunCampaign(runs, {.jobs = kGridJobs})) {
      if (!outcome.ok()) {
        return Status::Internal(outcome.name + ": " + outcome.FailureText());
      }
      (*out)[outcome.name] = OutcomeOf(outcome.metrics);
    }
    return Status::Ok();
  }

  RoundResult Round(bool traced, int first_op) override {
    RoundResult round;
    const Clock::time_point start = Clock::now();
    std::string json;
    const campaign::CampaignResult result =
        traced ? perfbench::RunCampaign(spec_, kGridJobs, first_op, &json)
               : campaign::Run(spec_, {.jobs = kGridJobs});
    if (!traced) json = Export(result);
    round.wall_s = SecondsSince(start);
    round.latency_ms.push_back(round.wall_s * 1e3);
    for (const campaign::RunOutcome& outcome : result.outcomes()) {
      CheckRun(outcome.name, outcome.status, outcome.metrics, traced, &round);
    }
    if (!traced) {
      untraced_export_ = json;
    } else if (json != untraced_export_) {
      Fail(&round, "eval_grid export",
           "traced campaign JSON differs from the untraced pass's");
    }
    return round;
  }

  std::size_t ops_per_round() const override { return cells_; }
  std::string round_text() const override {
    return "1 pass = " + std::to_string(cells_) +
           " cells (11 workloads x 5 defenses, scale 0.5, " +
           std::to_string(kGridJobs) + " jobs) + export";
  }
  const char* latency_text() const override { return "pass"; }

 private:
  campaign::CampaignSpec spec_;
  std::size_t cells_ = 0;
  std::string untraced_export_;
};

// ---- long_run and smp_rpc: prebuilt .rimg images ----------------------

// What `rrun [--harts N] prog.rimg` does after reading the file.
StatusOr<core::RunMetrics> RunImage(const std::string& rimg, unsigned harts,
                                    bool traced) {
  StatusOr<asmtool::LinkImage> image = [&] {
    ScopedSpan span("asmtool.deserialize");
    return asmtool::DeserializeImage(rimg);
  }();
  if (!image.ok()) return image.status();
  RecordCount("asmtool.rimg_bytes", rimg.size());
  core::BuildResult build;
  build.image = std::move(image).value();
  const auto variant = core::SystemVariant::kFullRoload;
  if (harts == 1) {
    return traced ? perfbench::RunBuild(build, variant)
                  : core::RunBuild(build, variant);
  }
  return traced ? perfbench::RunBuildSmp(build, variant, harts)
                : smp::RunBuildSmp(build, variant, harts);
}

class ImageRuns : public Workload {
 public:
  struct Program {
    workloads::WorkloadSpec spec;
    core::Defense defense = core::Defense::kNone;
  };

  ImageRuns(std::vector<Program> programs, unsigned harts)
      : programs_(std::move(programs)), harts_(harts) {}

  void SetUp() override {
    images_.clear();
    for (const Program& program : programs_) {
      core::BuildOptions options;
      options.defense = program.defense;
      auto build = core::Build(workloads::Generate(program.spec), options);
      ROLOAD_CHECK(build.ok());
      ScopedSpan span("asmtool.serialize");
      images_.push_back(asmtool::SerializeImage(build->image));
    }
    // Warm-up: the first image's deserialize + machine + load, the floor
    // every op pays before its run.
    auto image = asmtool::DeserializeImage(images_.front());
    ROLOAD_CHECK(image.ok());
    smp::SmpConfig config;
    config.harts = harts_;
    smp::Machine machine(config);
    ROLOAD_CHECK(machine.Load(*image).ok());
  }

  Status Reference(Outcomes* out) override {
    for (std::size_t i = 0; i < programs_.size(); ++i) {
      auto image = asmtool::DeserializeImage(images_[i]);
      if (!image.ok()) return image.status();
      core::BuildResult build;
      build.image = std::move(image).value();
      const auto variant = core::SystemVariant::kFullRoload;
      const std::uint64_t limit = 1ull << 34;
      auto metrics =
          harts_ == 1
              ? core::RunBuild(build, variant, limit, {},
                               cpu::ExecTier::kInterp)
              : smp::RunBuildSmp(build, variant, harts_, limit, {},
                                 cpu::ExecTier::kInterp);
      if (!metrics.ok()) return metrics.status();
      if (!metrics->completed) {
        return Status::Internal(OpName(i) + ": reference did not complete");
      }
      (*out)[OpName(i)] = OutcomeOf(*metrics);
    }
    return Status::Ok();
  }

  RoundResult Round(bool traced, int first_op) override {
    RoundResult round;
    for (std::size_t i = 0; i < images_.size(); ++i) {
      ContextGuard guard(OpContext(first_op + static_cast<int>(i)));
      const Clock::time_point start = Clock::now();
      auto metrics = RunImage(images_[i], harts_, traced);
      const double seconds = SecondsSince(start);
      round.wall_s += seconds;
      round.latency_ms.push_back(seconds * 1e3);
      CheckRun(OpName(i), metrics.status(),
               metrics.ok() ? *metrics : core::RunMetrics{}, traced, &round);
    }
    return round;
  }

  std::size_t ops_per_round() const override { return programs_.size(); }
  std::string round_text() const override {
    std::string text = std::to_string(programs_.size()) + " image run(s) (";
    for (std::size_t i = 0; i < programs_.size(); ++i) {
      text += (i > 0 ? ", " : "") + OpName(i);
    }
    return text + ")";
  }

 private:
  std::string OpName(std::size_t i) const {
    return programs_[i].spec.name + "/" +
           std::string(core::DefenseName(programs_[i].defense)) + "/h" +
           std::to_string(harts_);
  }

  std::vector<Program> programs_;
  unsigned harts_ = 1;
  std::vector<std::string> images_;  // serialized .rimg bytes
};

std::unique_ptr<Workload> MakeLongRun(std::uint64_t seed) {
  const std::pair<const char*, core::Defense> picks[] = {
      {"429.mcf_like", core::Defense::kICall},      // 32 MiB working set
      {"458.sjeng_like", core::Defense::kICall},    // densest icalls
      {"471.omnetpp_like", core::Defense::kVCall}};  // vcall-heavy C++
  const auto suite = workloads::SpecCint2006Suite(kLongRunScale);
  std::vector<ImageRuns::Program> programs;
  for (const auto& [name, defense] : picks) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (suite[i].name != name) continue;
      ImageRuns::Program program{suite[i], defense};
      program.spec.seed = WorkloadSeed(seed, i);  // as in eval_grid
      program.spec.ops_per_step *= kLongRunBodyFactor;
      program.spec.iterations /= kLongRunBodyFactor;
      programs.push_back(program);
    }
  }
  return std::make_unique<ImageRuns>(std::move(programs), 1);
}

std::unique_ptr<Workload> MakeSmpRpc(std::uint64_t seed) {
  std::vector<ImageRuns::Program> programs;
  for (unsigned i = 0; i < kRpcPrograms; ++i) {
    ImageRuns::Program program{
        workloads::RpcServerWorkload(kRpcRequests, WorkloadSeed(seed, i)),
        core::Defense::kICall};
    // Op names must differ; the module name reaches only an asm comment.
    program.spec.name += "." + std::to_string(i);
    programs.push_back(program);
  }
  return std::make_unique<ImageRuns>(std::move(programs), kRpcHarts);
}

// ---- attack_verdicts --------------------------------------------------

// The fixed victim (sec::MakeVictimModule) takes no seed, so neither does
// this workload: every seed runs the same 32 verdicts.
class AttackVerdicts : public Workload {
 public:
  explicit AttackVerdicts(std::map<std::string, std::string> answers)
      : answers_(std::move(answers)) {
    for (unsigned harts : {1u, kAttackLoadHarts}) {
      for (sec::AttackKind kind : kAttacks) {
        for (core::Defense defense : kDefenses) {
          // The under-load grid of bench/security_matrix: the defenses
          // with a ROLoad dispatch path, plus the undefended control.
          if (harts > 1 && defense != core::Defense::kNone &&
              defense != core::Defense::kVCall &&
              defense != core::Defense::kICall) {
            continue;
          }
          cells_.push_back({kind, defense, harts});
        }
      }
    }
  }

  void SetUp() override {
    // Warm-up: one verdict (the ops build their victim themselves).
    auto warm = sec::RunAttack(kAttacks[0], kDefenses[0]);
    ROLOAD_CHECK(warm.ok());
  }

  bool checks_outcomes() const override { return false; }
  Status Reference(Outcomes*) override { return Status::Ok(); }

  RoundResult Round(bool traced, int first_op) override {
    RoundResult round;
    std::map<std::string, sec::AttackOutcome> one_hart;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      ContextGuard guard(OpContext(first_op + static_cast<int>(i)));
      const Clock::time_point start = Clock::now();
      StatusOr<sec::AttackResult> result = [&] {
        ScopedSpan span(cell.harts == 1 ? "sec.attack.h1" : "sec.attack.h4");
        return cell.harts == 1
                   ? sec::RunAttack(cell.kind, cell.defense)
                   : sec::RunAttackSmp(cell.kind, cell.defense, cell.harts);
      }();
      const double seconds = SecondsSince(start);
      round.wall_s += seconds;
      round.latency_ms.push_back(seconds * 1e3);
      ++round.ops;
      const std::string op = OpName(cell);
      if (!result.ok()) {
        Fail(&round, op, result.status().ToString());
        continue;
      }
      for (const auto& [name, value] : result->counters) {
        if (name == "cpu.instret") round.instructions += value;
      }
      // The outcome is the verdict; the classification string is not
      // checked (it may legitimately change which mechanism it credits).
      const std::string outcome(sec::AttackOutcomeName(result->outcome));
      const auto answer = answers_.find(CellKey(cell));
      if (answer == answers_.end()) {
        Fail(&round, op, "no known answer");
      } else if (outcome != answer->second) {
        Fail(&round, op, outcome + " != known answer " + answer->second);
      } else if (cell.harts == 1) {
        one_hart[CellKey(cell)] = result->outcome;
      } else if (one_hart.count(CellKey(cell)) == 0 ||
                 one_hart[CellKey(cell)] != result->outcome) {
        Fail(&round, op, "differs from the 1-hart verdict");
      }
    }
    if (traced) Probe(first_op, &round);
    return round;
  }

  std::size_t ops_per_round() const override { return cells_.size(); }
  std::string round_text() const override {
    return std::to_string(cells_.size()) +
           " verdicts (4 attacks x 5 defenses at 1 hart, 4 attacks x "
           "{none,VCall,ICall} at 4 harts)";
  }

 private:
  struct Cell {
    sec::AttackKind kind;
    core::Defense defense;
    unsigned harts;
  };

  static std::string CellKey(const Cell& cell) {
    return std::string(sec::AttackKindName(cell.kind)) + "/" +
           std::string(core::DefenseName(cell.defense));
  }
  static std::string OpName(const Cell& cell) {
    return CellKey(cell) + "/h" + std::to_string(cell.harts);
  }

  // The machine floor of each verdict, timed beside it: core::Build of the
  // victim and one clean victim machine ctor + load + run at the verdict's
  // width (a verdict builds once and runs two such machines).
  void Probe(int first_op, RoundResult* round) {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      ContextGuard guard(OpContext(first_op + static_cast<int>(i)));
      core::BuildOptions options;
      options.defense = cell.defense;
      StatusOr<core::BuildResult> build = [&] {
        ScopedSpan span("sec.victim_build");
        return core::Build(sec::MakeVictimModule(), options);
      }();
      if (!build.ok()) {
        Fail(round, OpName(cell) + " probe", build.status().ToString());
        continue;
      }
      ScopedSpan span("sec.victim_run");
      smp::SmpConfig config;
      config.harts = cell.harts;
      smp::Machine machine(config);
      const Status load = machine.Load(build->image);
      if (!load.ok() ||
          machine.Run().kind != kernel::ExitKind::kExited) {
        Fail(round, OpName(cell) + " probe", "victim did not run cleanly");
      }
    }
  }

  std::map<std::string, std::string> answers_;
  std::vector<Cell> cells_;
};

// ---- committed data ---------------------------------------------------

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

StatusOr<std::map<std::string, std::string>> LoadAnswers(
    const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto json = ParseJson(*text);
  if (!json.ok()) return json.status();
  const JsonValue* answers = json->Find("answers");
  if (answers == nullptr || !answers->is_object()) {
    return Status::InvalidArgument(path + ": no \"answers\" object");
  }
  std::map<std::string, std::string> out;
  for (const auto& [cell, outcome] : answers->object) {
    if (!outcome.is_string()) {
      return Status::InvalidArgument(path + ": " + cell + " is not a string");
    }
    out[cell] = outcome.string;
  }
  return out;
}

// expected_runs.json: {"seed": N, "workloads": {name: {op: outcome}}}.
struct CommittedRuns {
  std::uint64_t seed = 0;
  std::map<std::string, Outcomes> workloads;
};

StatusOr<CommittedRuns> LoadExpected(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto json = ParseJson(*text);
  if (!json.ok()) return json.status();
  const JsonValue* seed = json->Find("seed");
  const JsonValue* workloads = json->Find("workloads");
  if (seed == nullptr || !seed->is_number() || workloads == nullptr ||
      !workloads->is_object()) {
    return Status::InvalidArgument(path + ": needs \"seed\" and "
                                          "\"workloads\"");
  }
  CommittedRuns runs;
  runs.seed = static_cast<std::uint64_t>(seed->number);
  for (const auto& [workload, ops] : workloads->object) {
    Outcomes& outcomes = runs.workloads[workload];
    for (const auto& [op, value] : ops.object) {
      const JsonValue* cycles = value.Find("cycles");
      const JsonValue* instructions = value.Find("instructions");
      const JsonValue* exit_code = value.Find("exit_code");
      const JsonValue* stdout_text = value.Find("stdout");
      if (cycles == nullptr || instructions == nullptr ||
          exit_code == nullptr || stdout_text == nullptr) {
        return Status::InvalidArgument(path + ": incomplete entry " + op);
      }
      outcomes[op] = {static_cast<std::uint64_t>(cycles->number),
                      static_cast<std::uint64_t>(instructions->number),
                      static_cast<std::int64_t>(exit_code->number),
                      stdout_text->string};
    }
  }
  return runs;
}

// ---- command line and main loop ---------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20;
  bool trace = false;
  std::string data_dir = "perfbench";
  std::string spans_out;
  bool write_expected = false;
};

std::unique_ptr<Workload> MakeWorkload(
    const std::string& name, std::uint64_t seed,
    const std::map<std::string, std::string>& answers) {
  if (name == "eval_grid") return std::make_unique<EvalGrid>(seed);
  if (name == "long_run") return MakeLongRun(seed);
  if (name == "attack_verdicts") {
    return std::make_unique<AttackVerdicts>(answers);
  }
  if (name == "smp_rpc") return MakeSmpRpc(seed);
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-expected") {
      args->write_expected = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value, &used);
        if (used != value.size() || value[0] == '-') return false;
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value, &used);
        if (used != value.size() || !(args->seconds > 0)) return false;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else if (flag == "--data") {
        args->data_dir = value;
      } else if (flag == "--spans-out") {
        args->spans_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return args->write_expected || !args->workload.empty();
}

// Computes every seeded workload's reference outcomes at `seed` and
// writes them as the committed expectations.
int WriteExpected(const Args& args) {
  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "perfbench.expected_runs.v1");
  json.KV("seed", args.seed);
  json.KV("tier", "interp");
  json.Key("workloads").BeginObject();
  for (const char* name : {"eval_grid", "long_run", "smp_rpc"}) {
    auto workload = MakeWorkload(name, args.seed, {});
    workload->SetUp();
    Outcomes outcomes;
    const Status status = workload->Reference(&outcomes);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", name, status.ToString().c_str());
      return 1;
    }
    json.Key(name).BeginObject();
    for (const auto& [op, outcome] : outcomes) {
      json.Key(op).BeginObject();
      json.KV("cycles", outcome.cycles);
      json.KV("instructions", outcome.instructions);
      json.KV("exit_code", outcome.exit_code);
      json.KV("stdout", outcome.stdout_text);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  const std::string path = args.data_dir + "/expected_runs.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json.str() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (seed %llu)\n", path.c_str(),
              static_cast<unsigned long long>(args.seed));
  return 0;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string FormatNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", std::isfinite(value) ? value : 0);
  return text;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

// Medians over the traced rounds [first, first + count) of the per-round
// self time / counts, as per-layer metrics. Unexercised layers read 0.
std::vector<Metric> LayerMetrics(const SpanLog& log, int setups, int first,
                                 int count, unsigned jobs) {
  const int rounds = first + count;
  const auto times = log.TimesPerRound(rounds);
  const auto counts = log.CountsPerRound(rounds);
  auto median_over = [&](const std::vector<double>& per_round, int from,
                         int n) {
    if (per_round.empty()) return 0.0;
    return Median(std::vector<double>(per_round.begin() + from,
                                      per_round.begin() + from + n));
  };
  auto self_ms = [&](const std::string& name, bool setup = false) {
    const auto it = times.find(name);
    if (it == times.end()) return 0.0;
    return setup ? median_over(it->second.self_ms, 0, setups)
                 : median_over(it->second.self_ms, first, count);
  };
  auto count_of = [&](const std::string& name) {
    const auto it = counts.find(name);
    if (it == counts.end()) return 0.0;
    std::vector<double> values(it->second.begin() + first,
                               it->second.begin() + rounds);
    return Median(values);
  };

  std::vector<Metric> out;
  // campaign: its own serial work, and how long the workers sat idle.
  out.push_back({"campaign.pass.ms", self_ms("campaign.pass"), "ms"});
  std::vector<double> idle;
  if (const auto pass = times.find("campaign.pass"); pass != times.end()) {
    const auto cell = times.find("campaign.cell");
    for (int r = first; r < rounds; ++r) {
      const double wall = pass->second.duration_ms[r];
      const double busy =
          cell == times.end() ? 0 : cell->second.duration_ms[r];
      if (wall > 0) idle.push_back(1 - busy / (jobs * wall));
    }
  }
  out.push_back({"campaign.worker_idle_frac", Median(idle), "fraction"});
  for (const char* layer :
       {"campaign.cell", "workloads.generate", "passes.harden",
        "backend.codegen", "asmtool.assemble", "core.build"}) {
    out.push_back({std::string(layer) + ".ms", self_ms(layer), "ms"});
  }
  out.push_back({"backend.asm_bytes", count_of("backend.asm_bytes"), "B"});
  out.push_back(
      {"asmtool.section_bytes", count_of("asmtool.section_bytes"), "B"});
  out.push_back(
      {"asmtool.mapped_bytes", count_of("asmtool.mapped_bytes"), "B"});
  out.push_back({"asmtool.serialize.ms",
                 self_ms("asmtool.serialize", /*setup=*/true), "ms"});
  out.push_back({"asmtool.deserialize.ms", self_ms("asmtool.deserialize"),
                 "ms"});
  out.push_back({"asmtool.rimg_bytes", count_of("asmtool.rimg_bytes"), "B"});
  for (const char* layer : {"core.system_ctor", "core.system_dtor",
                            "kernel.load", "cpu.run", "core.run_build"}) {
    out.push_back({std::string(layer) + ".ms", self_ms(layer), "ms"});
  }
  out.push_back({"core.system_ctor.rss_kib",
                 count_of("core.system_ctor.rss_kib"), "KiB"});
  out.push_back(
      {"kernel.load.rss_kib", count_of("kernel.load.rss_kib"), "KiB"});
  const double instructions = count_of("cpu.instructions");
  out.push_back({"cpu.instructions", instructions, "count"});
  const double cpu_run_ms = self_ms("cpu.run");
  out.push_back({"cpu.run.mips",
                 cpu_run_ms > 0 ? instructions / cpu_run_ms / 1e3 : 0,
                 "MIPS"});
  for (const char* layer : {"smp.machine_ctor", "smp.load", "smp.run",
                            "smp.machine_dtor", "smp.run_build"}) {
    out.push_back({std::string(layer) + ".ms", self_ms(layer), "ms"});
  }
  const double smp_run_ms = self_ms("smp.run");
  out.push_back({"smp.run.mips",
                 smp_run_ms > 0 ? instructions / smp_run_ms / 1e3 : 0,
                 "MIPS"});
  for (const char* layer : {"sec.attack.h1", "sec.attack.h4",
                            "sec.victim_build", "sec.victim_run",
                            "trace.snapshot", "trace.export"}) {
    out.push_back({std::string(layer) + ".ms", self_ms(layer), "ms"});
  }
  return out;
}

int Run(const Args& args) {
  auto answers = LoadAnswers(args.data_dir + "/attack_answers.json");
  auto committed = LoadExpected(args.data_dir + "/expected_runs.json");
  if (!answers.ok() || !committed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 (!answers.ok() ? answers.status() : committed.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, *answers);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("  round: %s\n", workload->round_text().c_str());

  SpanLog log;
  const SpanContext root{args.trace ? &log : nullptr, -1, -1, -1};

  // Set-up, repeated; setup_s = process start to the first set-up plus
  // the median set-up.
  const double startup_s = SecondsSince(kProcessStart);
  std::vector<double> setups;
  for (int i = 0; i < kSetUps; ++i) {
    SpanContext context = root;
    context.round = i;
    ContextGuard guard(context);
    const Clock::time_point start = Clock::now();
    workload->SetUp();
    setups.push_back(SecondsSince(start));
  }
  const double setup_s = startup_s + Median(setups);

  // Reference outcomes: committed for the default seed, else computed on
  // the reference interpreter here, outside setup_s and the timed rounds.
  if (workload->checks_outcomes()) {
    if (args.seed == committed->seed) {
      workload->set_expected(committed->workloads[args.workload]);
      std::printf("  reference: committed (seed %llu)\n",
                  static_cast<unsigned long long>(committed->seed));
    } else {
      const Clock::time_point start = Clock::now();
      Outcomes outcomes;
      const Status status = workload->Reference(&outcomes);
      if (!status.ok()) {
        std::fprintf(stderr, "reference run failed: %s\n",
                     status.ToString().c_str());
      }
      workload->set_expected(std::move(outcomes));
      std::printf("  reference: interp, %.1f s (not in setup_s)\n",
                  SecondsSince(start));
    }
  }

  // Timed rounds: whole rounds for --seconds (at least one; no round is
  // started that the last one's duration says would end past the budget).
  // With --trace 1 every untraced round is followed by a traced one.
  std::vector<RoundResult> untraced;
  std::vector<double> untraced_cpu_s;
  std::vector<double> traced_wall_ms;
  std::vector<double> traced_user_s, traced_sys_s;
  std::uint64_t attempted = 0, failed = 0;
  const int ops = static_cast<int>(workload->ops_per_round());
  const Clock::time_point start = Clock::now();
  double last_s = 0;
  for (int r = 0; r == 0 || SecondsSince(start) + last_s <= args.seconds;
       ++r) {
    const Clock::time_point iteration = Clock::now();
    {
      ContextGuard guard(SpanContext{});
      const CpuTimes before = ProcessCpu();
      untraced.push_back(workload->Round(/*traced=*/false, -1));
      const CpuTimes after = ProcessCpu();
      untraced_cpu_s.push_back(after.user_s - before.user_s + after.sys_s -
                               before.sys_s);
      attempted += untraced.back().ops;
      failed += untraced.back().failed;
    }
    if (args.trace) {
      SpanContext context = root;
      context.round = kSetUps + static_cast<int>(traced_wall_ms.size());
      ContextGuard guard(context);
      const CpuTimes before = ProcessCpu();
      const RoundResult round =
          workload->Round(/*traced=*/true, r * ops);
      const CpuTimes after = ProcessCpu();
      traced_user_s.push_back(after.user_s - before.user_s);
      traced_sys_s.push_back(after.sys_s - before.sys_s);
      traced_wall_ms.push_back(round.wall_s * 1e3);
      attempted += round.ops;
      failed += round.failed;
    }
    last_s = SecondsSince(iteration);
  }

  // Rates are medians over the rounds, so one disturbed round does not
  // move them.
  std::vector<double> latency_ms, round_ms, ops_s, mips, cpu_s_per_op;
  for (std::size_t r = 0; r < untraced.size(); ++r) {
    const RoundResult& round = untraced[r];
    const double ops = static_cast<double>(round.ops);
    round_ms.push_back(round.wall_s * 1e3);
    ops_s.push_back(ops / round.wall_s);
    mips.push_back(static_cast<double>(round.instructions) / round.wall_s /
                   1e6);
    cpu_s_per_op.push_back(untraced_cpu_s[r] / ops);
    latency_ms.insert(latency_ms.end(), round.latency_ms.begin(),
                      round.latency_ms.end());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024;

  const std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"throughput_ops_s", Median(ops_s), "1/s"},
      {"latency_p50_ms", Median(latency_ms), "ms"},
      {"sim_mips", Median(mips), "MIPS"},
      {"cpu_s_per_op", Median(cpu_s_per_op), "s"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
  std::printf("  end to end (%zu untraced rounds, %zu %s latency samples):\n",
              untraced.size(), latency_ms.size(), workload->latency_text());
  PrintTable(end_to_end);
  std::printf("  %-28s", "round walls (ms)");
  for (double ms : round_ms) std::printf(" %.1f", ms);
  std::printf("\n");
  if (latency_ms.size() >= 100) {
    std::printf("  %-28s %16.6f ms (n=%zu, %zu beyond)\n", "latency_p90_ms",
                Percentile(latency_ms, 0.9), latency_ms.size(),
                latency_ms.size() -
                    static_cast<std::size_t>(
                        std::ceil(0.9 * static_cast<double>(
                                            latency_ms.size()))));
  }
  std::printf("  %-28s %16.6f fraction (%llu failed / %llu attempted)\n",
              "error_rate",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  %-28s %16llu count\n", "cpu.instructions per round",
              static_cast<unsigned long long>(
                  untraced.empty() ? 0 : untraced.front().instructions));

  std::vector<Metric> result = end_to_end;
  if (args.trace) {
    const int traced_rounds = static_cast<int>(traced_wall_ms.size());
    result = LayerMetrics(log, kSetUps, kSetUps, traced_rounds, kGridJobs);
    result.push_back({"process.user_s", Median(traced_user_s), "s"});
    result.push_back({"process.sys_s", Median(traced_sys_s), "s"});
    const double overhead_ms = Median(traced_wall_ms) - Median(round_ms);
    result.push_back({"trace.overhead_ms", overhead_ms, "ms"});
    std::printf("  per layer (per round, median of %d traced rounds; self "
                "time = span minus its children):\n",
                traced_rounds);
    PrintTable(result);
    std::printf("  tracing overhead: %.3f ms per round (%.2f%% of %.3f ms "
                "untraced)\n",
                overhead_ms, 100 * overhead_ms / Median(round_ms),
                Median(round_ms));
    if (!args.spans_out.empty()) {
      const Status written = log.WriteChromeTrace(args.spans_out);
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
      } else {
        std::printf("  spans: %zu written to %s\n", log.size(),
                    args.spans_out.c_str());
      }
    }
  }
  PrintResult(failed == 0, attempted, failed, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: roload_perfbench --workload "
                 "eval_grid|long_run|attack_verdicts|smp_rpc --seed N "
                 "--seconds S --trace 0|1 --data DIR [--spans-out FILE]\n"
                 "       roload_perfbench --write-expected --seed N "
                 "--data DIR\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (args.write_expected) return perfbench::WriteExpected(args);
  return perfbench::Run(args);
}
