#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "sim/log.h"

namespace bridge {
namespace {

namespace fs = std::filesystem;

class SweepEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = fs::path(::testing::TempDir()) /
                 ("bridge-sweep-" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()));
    fs::remove_all(cache_dir_);
    options_.workers = 2;
    options_.cache_dir = cache_dir_.string();
  }
  void TearDown() override { fs::remove_all(cache_dir_); }

  static std::vector<JobSpec> smallGrid() {
    return {microbenchJob(PlatformId::kRocket1, "MM", 0.05),
            microbenchJob(PlatformId::kRocket2, "STL2", 0.05),
            microbenchJob(PlatformId::kBananaPiSim, "ED1", 0.05)};
  }

  fs::path cache_dir_;
  SweepOptions options_;
};

TEST_F(SweepEngineTest, ResultsComeBackInJobOrder) {
  SweepEngine engine(options_);
  const auto results = engine.run(smallGrid());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].label, "MM@Rocket1");
  EXPECT_EQ(results[1].label, "STL2@Rocket2");
  EXPECT_EQ(results[2].label, "ED1@BananaPiSim");
  for (const SweepResult& r : results) {
    EXPECT_FALSE(r.from_cache);
    EXPECT_GT(r.result.cycles, 0u);
    EXPECT_FALSE(r.stats.empty());
  }
}

TEST_F(SweepEngineTest, EngineMatchesDirectHarnessRun) {
  SweepEngine engine(options_);
  const SweepResult viaEngine =
      engine.runOne(microbenchJob(PlatformId::kBananaPiSim, "MM", 0.1));
  const RunResult direct = runMicrobench(PlatformId::kBananaPiSim, "MM", 0.1);
  EXPECT_EQ(viaEngine.result.cycles, direct.cycles);
  EXPECT_EQ(viaEngine.result.retired, direct.retired);
  EXPECT_DOUBLE_EQ(viaEngine.result.seconds, direct.seconds);
}

TEST_F(SweepEngineTest, SecondRunIsServedFromCacheWithIdenticalResults) {
  SweepEngine engine(options_);
  const auto cold = engine.run(smallGrid());
  const auto warm = engine.run(smallGrid());
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_FALSE(cold[i].from_cache);
    EXPECT_TRUE(warm[i].from_cache) << cold[i].label;
    EXPECT_EQ(warm[i].fingerprint, cold[i].fingerprint);
    EXPECT_EQ(warm[i].result.cycles, cold[i].result.cycles);
    EXPECT_EQ(warm[i].result.retired, cold[i].result.retired);
    EXPECT_EQ(warm[i].result.messages, cold[i].result.messages);
    EXPECT_EQ(warm[i].result.seconds, cold[i].result.seconds);
    EXPECT_EQ(warm[i].result.ipc, cold[i].result.ipc);
    EXPECT_EQ(warm[i].stats, cold[i].stats);
  }
}

TEST_F(SweepEngineTest, PlatformParamChangeMissesTheCache) {
  SweepEngine engine(options_);
  JobSpec job = microbenchJob(PlatformId::kRocket1, "ML2", 0.05);
  const SweepResult first = engine.runOne(job);
  EXPECT_FALSE(first.from_cache);

  // Same workload, one timing parameter moved: must re-simulate.
  JobSpec tuned = job;
  tuned.overrides.set("l2.banks", "4");
  const SweepResult second = engine.runOne(tuned);
  EXPECT_FALSE(second.from_cache);
  EXPECT_NE(second.fingerprint, first.fingerprint);

  // And the original is still a hit.
  EXPECT_TRUE(engine.runOne(job).from_cache);
}

TEST_F(SweepEngineTest, NoCacheOptionBypassesTheCache) {
  options_.use_cache = false;
  SweepEngine engine(options_);
  engine.run(smallGrid());
  const auto again = engine.run(smallGrid());
  for (const SweepResult& r : again) EXPECT_FALSE(r.from_cache);
}

TEST_F(SweepEngineTest, StrictPolicyRethrowsJobException) {
  // The pre-PR5 contract, preserved behind FailurePolicy::strict.
  options_.failures.strict = true;
  SweepEngine engine(options_);
  std::vector<JobSpec> jobs = smallGrid();
  jobs.push_back(microbenchJob(PlatformId::kRocket1, "NoSuchKernel", 0.05));
  EXPECT_THROW(engine.run(jobs), std::out_of_range);
}

TEST_F(SweepEngineTest, StrictPolicyUnknownOverrideKeyThrows) {
  options_.failures.strict = true;
  SweepEngine engine(options_);
  JobSpec job = microbenchJob(PlatformId::kRocket1, "MM", 0.05);
  job.overrides.set("l2.bankz", "4");  // typo must not be ignored
  EXPECT_THROW(engine.runOne(job), std::invalid_argument);
}

TEST_F(SweepEngineTest, DefaultPolicyIsolatesAFailingJob) {
  SweepEngine engine(options_);
  std::vector<JobSpec> jobs = smallGrid();
  jobs.push_back(microbenchJob(PlatformId::kRocket1, "NoSuchKernel", 0.05));

  RunReport report;
  const auto results = engine.run(jobs, &report);

  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].outcome, JobOutcome::kOk) << results[i].label;
    EXPECT_GT(results[i].result.cycles, 0u);
  }
  EXPECT_EQ(results[3].outcome, JobOutcome::kFailed);
  EXPECT_FALSE(results[3].error.empty());
  EXPECT_FALSE(results[3].ok());

  // Every job is accounted for, exactly once.
  EXPECT_EQ(report.total, 4u);
  EXPECT_EQ(report.ok, 3u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.timed_out, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_FALSE(report.allOk());
  ASSERT_EQ(report.failed_labels.size(), 1u);
  EXPECT_EQ(report.failed_labels[0], results[3].label);
  EXPECT_NE(report.summary().find("3/4 ok"), std::string::npos);
  EXPECT_NE(report.summary().find("1 failed"), std::string::npos);
}

TEST_F(SweepEngineTest, UnknownOverrideKeyFailsWithoutRetry) {
  // A spec that cannot be fingerprinted is a configuration error: no
  // retries (attempts stays 0), no quarantine entry, outcome kFailed. So is
  // a known key whose value does not parse as its knob's type: keeping the
  // base value would hand back the base result under the override's label.
  const std::pair<std::string, std::string> bad[] = {
      {"l2.bankz", "4"},
      {"l1d.sets", "abc"},
      {"l1d.sets", "-1"},
      {"l1d.sets", "4294967296"},
      {"hwvar.seed", "18446744073709551616"},
      {"sampling.seed", "1.5"},
      {"prefetch.enabled", "maybe"},
      {"freq_ghz", "0"},
      {"freq_ghz", "nan"},
  };
  for (const auto& [key, value] : bad) {
    SCOPED_TRACE(key + " = " + value);
    SweepEngine engine(options_);
    JobSpec job = microbenchJob(PlatformId::kRocket1, "MM", 0.05);
    job.overrides.set(key, value);
    const SweepResult r = engine.runOne(job);
    EXPECT_EQ(r.outcome, JobOutcome::kFailed);
    EXPECT_EQ(r.attempts, 0u);
    EXPECT_TRUE(r.fingerprint.empty());
    EXPECT_NE(r.error.find(key), std::string::npos);
    EXPECT_EQ(engine.quarantine().size(), 0u);
  }
}

// Log-capture plumbing for the degraded-cache test (LogSink is a plain
// function pointer, so the buffer has to be a global).
std::vector<std::string>* g_captured_logs = nullptr;

void captureLog(LogLevel, const std::string& msg) {
  if (g_captured_logs != nullptr) g_captured_logs->push_back(msg);
}

TEST_F(SweepEngineTest, UnwritableCacheDegradesToCacheOffWithOneWarning) {
  // Park the cache directory under a regular file so it cannot be created
  // (works even when the test runs as root, unlike permission bits).
  const fs::path blocker = cache_dir_.parent_path() /
                           (cache_dir_.filename().string() + ".blocker");
  std::ofstream(blocker.string()) << "not a directory";
  options_.cache_dir = (blocker / "cache").string();

  std::vector<std::string> logs;
  g_captured_logs = &logs;
  setLogSink(captureLog);
  const LogLevel old_level = logLevel();
  setLogLevel(LogLevel::kWarn);

  SweepEngine engine(options_);

  setLogLevel(old_level);
  resetLogSink();
  g_captured_logs = nullptr;
  fs::remove(blocker);

  // Degraded to cache-off with exactly one warning — and the run proceeds.
  EXPECT_FALSE(engine.options().use_cache);
  std::size_t warnings = 0;
  for (const std::string& msg : logs) {
    if (msg.find("not writable") != std::string::npos) ++warnings;
  }
  EXPECT_EQ(warnings, 1u);

  const auto results = engine.run(smallGrid());
  for (const SweepResult& r : results) {
    EXPECT_EQ(r.outcome, JobOutcome::kOk);
    EXPECT_FALSE(r.from_cache);
  }
}

TEST_F(SweepEngineTest, PolicySignatureNamesPolicyAndFaultPlan) {
  options_.failures.max_retries = 3;
  options_.failures.timeout_seconds = 2.5;
  options_.faults = FaultPlan::fromSpec("throw=0.25,seed=9");
  SweepEngine engine(options_);
  const std::string sig = engine.policySignature();
  EXPECT_NE(sig.find("retries=3"), std::string::npos);
  EXPECT_NE(sig.find("timeout=2.5s"), std::string::npos);
  EXPECT_NE(sig.find("quarantine=on"), std::string::npos);
  EXPECT_NE(sig.find("seed=9"), std::string::npos);
  EXPECT_NE(sig.find("throw=0.25"), std::string::npos);

  FailurePolicy strict;
  strict.strict = true;
  EXPECT_EQ(strict.signature(), "strict");
}

TEST(SweepCliTest, ParsesJobsAndCacheFlags) {
  const char* argv[] = {"bench", "--jobs", "8", "--no-cache", "--csv",
                        "extra"};
  const SweepCli cli =
      SweepCli::parse(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.options.workers, 8u);
  EXPECT_FALSE(cli.options.use_cache);
  EXPECT_TRUE(cli.csv);
  ASSERT_EQ(cli.rest.size(), 1u);
  EXPECT_EQ(cli.rest[0], "extra");

  const char* argv2[] = {"bench", "--jobs=3"};
  EXPECT_EQ(SweepCli::parse(2, const_cast<char**>(argv2)).options.workers,
            3u);
}

}  // namespace
}  // namespace bridge
