/**
 * @file
 * Tests of the deterministic fault injector and of end-to-end chaos
 * behaviour: injected IO faults may only degrade the artifact cache or
 * retry jobs — surviving results must stay byte-identical to a
 * fault-free run — and a given (seed, spec) must replay the same fault
 * pattern every time.
 *
 * This file carries the `chaos` CTest label.  It compiles in every
 * configuration but skips itself when the injector is compiled out
 * (the default; configure with -DLEAKBOUND_FAULT_INJECTION=ON or use
 * the `chaos` preset).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;
using namespace leakbound::core;
namespace fault = leakbound::util::fault;
namespace fs = std::filesystem;

namespace {

class FaultInjection : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!fault::kEnabled)
            GTEST_SKIP() << "injector compiled out "
                            "(-DLEAKBOUND_FAULT_INJECTION=OFF)";
        fault::reset();
    }

    void TearDown() override { fault::reset(); }
};

std::string
fresh_dir(const char *name)
{
    const std::string dir = ::testing::TempDir() + name;
    fs::remove_all(dir);
    return dir;
}

ExperimentResult
sample_result()
{
    ExperimentConfig config;
    config.instructions = 20'000;
    auto workload = workload::make_benchmark("gzip");
    return run_experiment(*workload, config);
}

} // namespace

TEST_F(FaultInjection, SameSeedAndSpecReplaysTheSamePattern)
{
    std::vector<bool> first;
    ASSERT_TRUE(fault::configure("short_write=0.5", 1234));
    for (int i = 0; i < 200; ++i)
        first.push_back(fault::should_fail(fault::Site::ShortWrite));
    const std::uint64_t fired =
        fault::injected_count(fault::Site::ShortWrite);
    // A 0.5 rate over 200 draws fires a nontrivial number of times.
    EXPECT_GT(fired, 50u);
    EXPECT_LT(fired, 150u);
    EXPECT_EQ(fault::total_injected(), fired);

    ASSERT_TRUE(fault::configure("short_write=0.5", 1234));
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(fault::should_fail(fault::Site::ShortWrite), first[i])
            << "draw " << i;

    // A different seed diverges somewhere in the sequence.
    ASSERT_TRUE(fault::configure("short_write=0.5", 99));
    bool diverged = false;
    for (int i = 0; i < 200; ++i)
        diverged |=
            fault::should_fail(fault::Site::ShortWrite) != first[i];
    EXPECT_TRUE(diverged);
}

TEST_F(FaultInjection, RateBoundsAndSiteSelectionAreExact)
{
    ASSERT_TRUE(fault::configure("open_read=1,open_write=0", 7));
    for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(fault::should_fail(fault::Site::OpenRead));
        EXPECT_FALSE(fault::should_fail(fault::Site::OpenWrite));
        // Sites with no rule never fire and never burn a draw.
        EXPECT_FALSE(fault::should_fail(fault::Site::Enospc));
    }
    EXPECT_EQ(fault::injected_count(fault::Site::OpenRead), 50u);
    EXPECT_EQ(fault::injected_count(fault::Site::OpenWrite), 0u);
    EXPECT_EQ(fault::injected_count(fault::Site::Enospc), 0u);
}

TEST_F(FaultInjection, MatchFilterRestrictsToTaggedProbes)
{
    ASSERT_TRUE(fault::configure("simulate@ammp=1", 7));
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(fault::should_fail(fault::Site::Simulate, "ammp"));
        EXPECT_FALSE(fault::should_fail(fault::Site::Simulate, "gzip"));
        EXPECT_FALSE(fault::should_fail(fault::Site::Simulate));
    }
    // The filter is substring containment (paths carry directories).
    EXPECT_TRUE(
        fault::should_fail(fault::Site::Simulate, "cache/ammp.lbx"));
}

TEST_F(FaultInjection, MalformedSpecsAreRejectedAtomically)
{
    ASSERT_TRUE(fault::configure("enospc=1", 7));
    for (const char *bad :
         {"bogus_site=1", "enospc=1.5", "enospc=-0.1", "enospc", "=0.5",
          "enospc@=1", "enospc=1,bogus_site=1", "enospc=abc", "lock=1"}) {
        EXPECT_FALSE(fault::configure(bad, 7)) << bad;
        // The previous rules survive a failed configure.
        EXPECT_TRUE(fault::should_fail(fault::Site::Enospc)) << bad;
    }
    // The empty spec is valid and clears all rules.
    ASSERT_TRUE(fault::configure("", 7));
    EXPECT_FALSE(fault::should_fail(fault::Site::Enospc));
}

TEST_F(FaultInjection, InjectedStoreFaultsDegradeTheCacheNotTheRun)
{
    // Every write is torn short: stores fail, the cache demotes after
    // kMaxStoreFailures, and load_or_run still returns correct results
    // throughout — no exception, no wrong data.
    ASSERT_TRUE(fault::configure("short_write=1", 7));
    const std::string dir = fresh_dir("lb_chaos_store");
    ArtifactCache cache(dir);
    const ExperimentResult want = sample_result();

    for (int i = 0; i < 5; ++i) {
        const ExperimentResult got = cache.load_or_run(
            100 + i, "gzip", [&want] { return want; });
        EXPECT_FALSE(got.from_cache) << i;
        EXPECT_EQ(serialize_result(got), serialize_result(want)) << i;
    }
    EXPECT_TRUE(cache.degraded());
    EXPECT_GE(cache.health().store_failures,
              ArtifactCache::kMaxStoreFailures);
    EXPECT_GT(cache.health().degraded_jobs, 0u);
    fs::remove_all(dir);
}

TEST_F(FaultInjection, TornRenamePublishesOnlyRejectableEntries)
{
    // A torn publish reports success but leaves half an entry; the
    // checksum/size validation must catch it on load, discard it, and
    // re-simulate — silent corruption never reaches a result.
    ASSERT_TRUE(fault::configure("rename_torn=1", 7));
    const std::string dir = fresh_dir("lb_chaos_torn");
    ArtifactCache cache(dir);
    const ExperimentResult want = sample_result();

    EXPECT_TRUE(cache.store(42, want).ok()) << "the tear is silent";
    EXPECT_TRUE(fs::exists(cache.entry_path(42)));
    EXPECT_FALSE(cache.try_load(42).has_value());
    EXPECT_FALSE(fs::exists(cache.entry_path(42)))
        << "torn entry not discarded";
    EXPECT_GE(cache.health().corrupt_entries, 1u);

    // End to end: load_or_run survives the torn store and returns the
    // simulated result.
    const ExperimentResult got =
        cache.load_or_run(42, "gzip", [&want] { return want; });
    EXPECT_EQ(serialize_result(got), serialize_result(want));
    fs::remove_all(dir);
}

TEST_F(FaultInjection, InjectedSimulationFaultIsIsolatedAndRetried)
{
    ASSERT_TRUE(fault::configure("simulate@ammp=1", 7));
    const std::vector<std::string> names = {"gzip", "ammp", "gcc"};
    ExperimentConfig config;
    config.instructions = 40'000;
    config.jobs = 2;

    SuiteOutcome outcome = run_suite_isolated(names, config);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures.front().workload, "ammp");
    EXPECT_EQ(outcome.failures.front().kind,
              util::ErrorKind::FaultInjected);
    EXPECT_EQ(outcome.failures.front().retries, kMaxJobRetries);
    EXPECT_TRUE(outcome.slots[0].has_value());
    EXPECT_FALSE(outcome.slots[1].has_value());
    EXPECT_TRUE(outcome.slots[2].has_value());
}

TEST_F(FaultInjection, ChaosSuiteSurvivorsAreByteIdenticalToCleanRun)
{
    // The acceptance demo: the full six-benchmark suite, four workers,
    // a cache directory, and a hostile mix of injected IO faults.  The
    // run must complete, and every surviving result must serialize to
    // exactly the bytes the fault-free run produces.
    const auto &names = workload::suite_names();
    ASSERT_EQ(names.size(), 6u);
    ExperimentConfig config;
    config.instructions = 40'000;
    config.jobs = 4;

    fault::reset();
    const auto reference = run_suite(names, config);

    const std::string dir = fresh_dir("lb_chaos_suite");
    config.cache_dir = dir;
    ASSERT_TRUE(fault::configure(
        "short_write=0.4,rename_torn=0.4,enospc=0.3,open_read=0.2", 42));
    SuiteOutcome outcome = run_suite_isolated(names, config);
    fault::reset();
    fs::remove_all(dir);

    // IO faults only touch the cache, which degrades gracefully: every
    // job must still succeed.
    EXPECT_TRUE(outcome.failures.empty());
    EXPECT_FALSE(outcome.interrupted);
    ASSERT_EQ(outcome.slots.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(outcome.slots[i].has_value()) << names[i];
        EXPECT_EQ(serialize_result(*outcome.slots[i]),
                  serialize_result(reference[i]))
            << names[i];
    }
}
