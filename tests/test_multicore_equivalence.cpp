/**
 * @file
 * The multicore engine's contracts (src/multicore):
 *
 *  - one core, two sources: a run over the caller's workload
 *    instance is byte-identical (core::serialize_result) to a
 *    one-entry-mix run, which builds its workload by name, with and
 *    without L2 collection;
 *  - determinism: a multicore suite run is byte-identical between
 *    --jobs 1 and --jobs 4;
 *  - golden digests: committed serialize_result digests pin the
 *    interleaving order (cycle ties included) and the directory;
 *  - invalidation accounting (seed-fuzzed): every interval boundary
 *    of every collector is attributable — per-core L1 populations
 *    close one interval per access plus one per invalidation
 *    received, the shared L2's merged population closes one per L2
 *    access plus one per invalidation-driven close, and the
 *    invalidation totals reconcile across cores;
 *  - oracle dominance: the generalized-model bounds computed from
 *    multicore populations dominate every stock policy in the zoo,
 *    per level;
 *  - typed validation: malformed multicore configs surface as
 *    InvalidArgument Status/StatusError (never fatal()), through
 *    validate(), run_multicore and the suite runner alike;
 *  - request decode: core_count / workload_mix wire keys (strict
 *    schema, scaled budget check, server-owned knobs still rejected)
 *    and artifact-cache fingerprints that never alias across
 *    core-count or mix changes;
 *  - chaos (fault-injection builds only): a multicore suite job hit
 *    by an injected simulate fault fails typed with retries, and one
 *    whose directory is corrupted fails the end-of-run directory check
 *    typed Internal, while their siblings survive byte-identically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "core/experiment_request.hpp"
#include "core/generalized_model.hpp"
#include "core/inflection.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "multicore/multicore.hpp"
#include "power/technology.hpp"
#include "util/fault_injection.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/status.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;

namespace {

/** A small, fast config (no artifact cache). */
core::ExperimentConfig
small_config(std::uint64_t instructions = 120'000)
{
    core::ExperimentConfig config;
    config.instructions = instructions;
    config.extra_edges = core::standard_extra_edges();
    return config;
}

std::string
single_core_bytes(const std::string &name,
                  const core::ExperimentConfig &config)
{
    auto workload = workload::make_benchmark(name);
    return core::serialize_result(core::run_experiment(*workload, config));
}

/** Every stock policy of core/policies.hpp under @p model. */
std::vector<core::PolicyPtr>
policy_zoo(const core::EnergyModel &model)
{
    const core::InflectionPoints points = core::compute_inflection(model);
    const std::vector<interval::PrefetchClass> both = {
        interval::PrefetchClass::NextLine,
        interval::PrefetchClass::Stride};
    std::vector<core::PolicyPtr> zoo;
    zoo.push_back(core::make_always_active(model));
    zoo.push_back(core::make_opt_drowsy(model));
    zoo.push_back(core::make_opt_sleep(model, points.drowsy_sleep));
    zoo.push_back(core::make_opt_sleep(model, 10'000));
    zoo.push_back(core::make_decay_sleep(model, 10'000));
    zoo.push_back(core::make_decay_sleep(model, 2'000));
    zoo.push_back(core::make_hybrid(model, points.drowsy_sleep));
    zoo.push_back(core::make_hybrid(model, 4'000));
    zoo.push_back(core::make_opt_hybrid(model));
    zoo.push_back(core::make_periodic_drowsy(model, 2'000));
    zoo.push_back(core::make_periodic_drowsy(model, 32'000));
    zoo.push_back(core::make_prefetch(model, core::PrefetchVariant::A,
                                      both));
    zoo.push_back(core::make_prefetch(model, core::PrefetchVariant::B,
                                      both));
    zoo.push_back(core::make_prefetch_blend(model, 3'000, both));
    return zoo;
}

util::Expected<core::ExperimentRequest>
decode(const std::string &json,
       std::uint64_t max_instructions =
           core::kDefaultMaxRequestInstructions)
{
    auto parsed = util::json_parse(json);
    EXPECT_TRUE(parsed.has_value()) << json;
    return core::decode_experiment_request(parsed.value(),
                                           max_instructions);
}

} // namespace

TEST(MulticoreReduction, N1IsByteIdenticalToTheSingleCoreEngine)
{
    for (const bool collect_l2 : {false, true}) {
        for (const std::string name : {"gzip", "gcc"}) {
            core::ExperimentConfig config = small_config();
            config.collect_l2 = collect_l2;

            // The caller's workload instance (empty mix)...
            const std::string borrowed = single_core_bytes(name, config);

            // ...against a one-entry mix, whose core builds its own
            // workload by name, through run_multicore and through
            // run_experiment.
            config.workload_mix = {name};
            const std::string direct = core::serialize_result(
                multicore::run_multicore(name, config)
                    .to_experiment_result());
            EXPECT_EQ(borrowed, direct)
                << name << " collect_l2=" << collect_l2;
            EXPECT_EQ(borrowed, single_core_bytes(name, config))
                << name << " collect_l2=" << collect_l2;
        }
    }
}

TEST(MulticoreDeterminism, SuiteIsByteIdenticalAcrossJobsValues)
{
    core::ExperimentConfig config = small_config(40'000);
    config.collect_l2 = true;
    config.core_count = 4;
    const std::vector<std::string> names = {"gzip", "gcc"};

    config.jobs = 1;
    const auto serial = core::run_suite(names, config);
    config.jobs = 4;
    const auto parallel = core::run_suite(names, config);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(core::serialize_result(serial[i]),
                  core::serialize_result(parallel[i]))
            << names[i];
}

TEST(MulticoreDeterminism, RepeatedRunsAreByteIdentical)
{
    core::ExperimentConfig config = small_config(40'000);
    config.collect_l2 = true;
    config.core_count = 2;
    config.workload_mix = {"stream", "chase"};
    const auto once = multicore::run_multicore("stream", config);
    const auto twice = multicore::run_multicore("stream", config);
    EXPECT_EQ(core::serialize_result(once.to_experiment_result()),
              core::serialize_result(twice.to_experiment_result()));
    EXPECT_EQ(once.invalidations, twice.invalidations);
    EXPECT_EQ(once.end_cycle, twice.end_cycle);
}

TEST(MulticoreGolden, SerializedDigestsArePinned)
{
    // Committed serialize_result digests: any change to the interleaving
    // order, the directory, or the collectors shows up here.  Regenerate
    // only for a change meant to alter results, and say why.
    struct Golden
    {
        std::vector<std::string> mix;
        bool collect_l2;
        std::uint32_t l2_ways;
        const char *digest;
    };
    const std::vector<Golden> goldens = {
        // Two identical cores tie on every cycle: the lower id must run
        // first, and the higher id must stop at the runner-up's cycle.
        {{"chase", "chase"}, false, 0, "782acf063dd3784c"},
        {{"stream", "stencil", "chase", "gzip"}, true, 16,
         "4b8ffff74d42791d"},
        {{"gzip", "gcc", "stream", "chase", "stencil", "vortex", "ammp",
          "mesa"},
         true, 0, "8a72bf22d45c79a0"},
        // perfbench's multicore_shared_l2 mix (seed 1 rotation): the
        // most invalidation-heavy configuration, so remote kills land
        // in cores that are not running.
        {{"stencil", "chase", "gzip", "stream", "stencil", "chase", "gzip",
          "stream"},
         true, 16, "63ca282697f642f7"},
    };
    for (const Golden &golden : goldens) {
        core::ExperimentConfig config = small_config(20'000);
        config.collect_l2 = golden.collect_l2;
        if (golden.l2_ways != 0)
            config.hierarchy.l2.associativity = golden.l2_ways;
        config.core_count = static_cast<std::uint32_t>(golden.mix.size());
        config.workload_mix = golden.mix;
        const std::string bytes = core::serialize_result(
            multicore::run_multicore(golden.mix.front(), config)
                .to_experiment_result());
        const std::string actual =
            util::hex64(util::fnv1a(bytes.data(), bytes.size()));
        EXPECT_EQ(actual, golden.digest)
            << multicore::mix_label(golden.mix)
            << ": actual digest " << actual;
    }
}

TEST(MulticoreAccounting, EveryIntervalBoundaryIsAttributable)
{
    // Seed-fuzzed: random core counts, mixes and budgets.  For every
    // collector, total intervals == touches + one finalize interval
    // per frame; multicore touches are accesses plus invalidation
    // closes.
    const std::vector<std::string> pool = {"gzip", "gcc",   "stream",
                                           "chase", "stencil", "vortex"};
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        util::Rng rng(0x5eed'c0deULL ^ (seed * 7919));
        core::ExperimentConfig config =
            small_config(20'000 + rng.next_below(20'000));
        config.collect_l2 = true;
        config.core_count = rng.next_below(2) ? 2 : 4;
        config.workload_mix.clear();
        for (std::uint32_t i = 0; i < config.core_count; ++i)
            config.workload_mix.push_back(
                pool[rng.next_below(pool.size())]);

        const multicore::MulticoreResult run =
            multicore::run_multicore(config.workload_mix.front(), config);
        ASSERT_EQ(run.cores.size(), config.core_count);

        std::uint64_t invalidations_received = 0;
        for (const multicore::CoreOutcome &core : run.cores) {
            EXPECT_EQ(core.icache.intervals.total_intervals(),
                      core.icache.stats.accesses +
                          core.icache.intervals.num_frames());
            EXPECT_EQ(core.dcache.intervals.total_intervals(),
                      core.dcache.stats.accesses +
                          core.invalidations_received +
                          core.dcache.intervals.num_frames());
            EXPECT_EQ(core.dcache.stats.accesses,
                      core.stats.loads + core.stats.stores);
            EXPECT_LE(core.stats.cycles, run.end_cycle);
            invalidations_received += core.invalidations_received;
        }
        EXPECT_EQ(invalidations_received, run.invalidations);
        EXPECT_GE(run.invalidations, run.invalidating_stores);

        ASSERT_TRUE(run.l2cache.has_value());
        EXPECT_EQ(run.l2cache->intervals.total_intervals(),
                  run.l2.accesses + run.l2_interval_closes +
                      run.l2cache->intervals.num_frames());

        // The merged population is exactly the union of the banks.
        std::uint64_t bank_intervals = 0, bank_frames = 0;
        for (const interval::IntervalHistogramSet &bank : run.l2_banks) {
            bank_intervals += bank.total_intervals();
            bank_frames += bank.num_frames();
        }
        EXPECT_EQ(bank_intervals, run.l2cache->intervals.total_intervals());
        EXPECT_EQ(bank_frames, run.l2cache->intervals.num_frames());
    }
}

TEST(MulticoreAccounting, SingleCoreRunsNeverInvalidate)
{
    core::ExperimentConfig config = small_config(40'000);
    config.collect_l2 = true;
    config.core_count = 1;
    const auto run = multicore::run_multicore("gzip", config);
    EXPECT_EQ(run.invalidations, 0u);
    EXPECT_EQ(run.invalidating_stores, 0u);
    EXPECT_EQ(run.l2_interval_closes, 0u);
}

TEST(MulticoreOracle, BoundDominatesEveryStockPolicyPerLevel)
{
    core::ExperimentConfig config = small_config(60'000);
    config.collect_l2 = true;
    config.core_count = 4;
    config.workload_mix = {"stream", "chase", "gzip", "stencil"};
    const auto run = multicore::run_multicore("stream", config);

    const core::EnergyModel model(
        power::node_params(power::TechNode::Nm70));
    const auto zoo = policy_zoo(model);
    const auto envelope = core::make_opt_hybrid(model);

    std::vector<const interval::IntervalHistogramSet *> sets;
    for (const multicore::CoreOutcome &core : run.cores) {
        sets.push_back(&core.icache.intervals);
        sets.push_back(&core.dcache.intervals);
    }
    sets.push_back(&run.l2cache->intervals);

    for (const interval::IntervalHistogramSet *set : sets) {
        const double oracle =
            core::evaluate_policy(*envelope, *set).total;
        for (const core::PolicyPtr &policy : zoo) {
            const core::SavingsResult r =
                core::evaluate_policy(*policy, *set);
            const double slack = 1e-9 * std::max(1.0, std::abs(r.total));
            EXPECT_LE(oracle, r.total + slack) << policy->name();
        }
    }
}

TEST(MulticoreValidation, TypedInvalidArgumentNeverFatal)
{
    core::ExperimentConfig config;
    config.core_count = 0;
    EXPECT_EQ(config.validate().kind(),
              util::ErrorKind::InvalidArgument);

    config.core_count = core::kMaxCoreCount + 1;
    EXPECT_EQ(config.validate().kind(),
              util::ErrorKind::InvalidArgument);

    config.core_count = 2;
    config.workload_mix = {"gzip"};
    EXPECT_EQ(config.validate().kind(),
              util::ErrorKind::InvalidArgument);

    config.workload_mix = {"gzip", "no_such_benchmark"};
    EXPECT_EQ(config.validate().kind(),
              util::ErrorKind::InvalidArgument);

    config.workload_mix = {"gzip", "gcc"};
    EXPECT_TRUE(config.validate().ok());
}

TEST(MulticoreValidation, RunMulticoreThrowsTyped)
{
    core::ExperimentConfig config = small_config(20'000);
    config.core_count = 2;
    config.keep_raw = true; // raw retention is single-core only
    try {
        multicore::run_multicore("gzip", config);
        FAIL() << "keep_raw multicore run did not throw";
    } catch (const util::StatusError &e) {
        EXPECT_EQ(e.status().kind(), util::ErrorKind::InvalidArgument);
    }

    config.keep_raw = false;
    config.core_count = 0;
    EXPECT_THROW(multicore::run_multicore("gzip", config),
                 util::StatusError);

    // A non-suite name cannot be replicated across cores.
    config.core_count = 2;
    EXPECT_THROW(multicore::run_multicore("no_such_benchmark", config),
                 util::StatusError);
}

TEST(MulticoreValidation, SuiteRunnerRecordsTheFailureInstead)
{
    core::ExperimentConfig config = small_config(20'000);
    config.core_count = 2;
    config.workload_mix = {"gzip"}; // length mismatch
    core::SuiteOutcome outcome =
        core::run_suite_isolated({"gzip"}, config);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures.front().kind,
              util::ErrorKind::InvalidArgument);
    EXPECT_FALSE(outcome.slots.front().has_value());
}

TEST(MulticoreRequest, DecodeAcceptsTheMulticoreKeys)
{
    auto decoded = decode(
        R"({"type":"run","benchmarks":["gzip"],"instructions":20000,)"
        R"("core_count":4,"workload_mix":["gzip","gcc","stream","chase"]})");
    ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().config.core_count, 4u);
    ASSERT_EQ(decoded.value().config.workload_mix.size(), 4u);
    EXPECT_EQ(decoded.value().config.workload_mix[3], "chase");
    EXPECT_TRUE(decoded.value().config.validate().ok());
}

TEST(MulticoreRequest, DecodeRejectsMalformedMulticoreKeys)
{
    const std::vector<std::string> bad = {
        // out-of-range / mistyped core_count
        R"({"type":"run","benchmarks":["gzip"],"core_count":0})",
        R"({"type":"run","benchmarks":["gzip"],"core_count":65})",
        R"({"type":"run","benchmarks":["gzip"],"core_count":"4"})",
        // malformed mixes
        R"({"type":"run","benchmarks":["gzip"],"workload_mix":[]})",
        R"({"type":"run","benchmarks":["gzip"],"workload_mix":"gzip"})",
        R"({"type":"run","benchmarks":["gzip"],)"
        R"("core_count":2,"workload_mix":["gzip"]})",
        R"({"type":"run","benchmarks":["gzip"],)"
        R"("core_count":2,"workload_mix":["gzip","warp"]})",
        // server-owned knobs stay rejected in multicore requests
        R"({"type":"run","benchmarks":["gzip"],"core_count":2,"jobs":4})",
        R"({"type":"run","benchmarks":["gzip"],)"
        R"("core_count":2,"keep_raw":true})",
    };
    for (const std::string &text : bad) {
        auto decoded = decode(text);
        ASSERT_FALSE(decoded.has_value()) << text;
        EXPECT_EQ(decoded.status().kind(),
                  util::ErrorKind::InvalidArgument)
            << text;
    }
}

TEST(MulticoreRequest, BudgetScalesWithCoreCount)
{
    // 60k x 4 cores exceeds a 200k ceiling even though 60k alone fits.
    EXPECT_TRUE(decode(R"({"type":"run","benchmarks":["gzip"],)"
                       R"("instructions":60000,"core_count":1})",
                       200'000)
                    .has_value());
    auto decoded = decode(R"({"type":"run","benchmarks":["gzip"],)"
                          R"("instructions":60000,"core_count":4})",
                          200'000);
    ASSERT_FALSE(decoded.has_value());
    EXPECT_EQ(decoded.status().kind(), util::ErrorKind::InvalidArgument);
}

TEST(MulticoreFingerprint, CoreCountAndMixNeverAlias)
{
    core::ExperimentConfig base = small_config(20'000);
    const std::uint64_t single = core::fingerprint_config(base);

    core::ExperimentConfig two = base;
    two.core_count = 2;
    EXPECT_NE(core::fingerprint_config(two), single);

    // An explicit homogeneous mix is a different key from the implicit
    // one (they request the same simulation through different configs;
    // aliasing them would hide decode bugs behind cache hits).
    core::ExperimentConfig explicit_mix = two;
    explicit_mix.workload_mix = {"gzip", "gzip"};
    EXPECT_NE(core::fingerprint_config(explicit_mix),
              core::fingerprint_config(two));

    // Mix content and order both matter.
    core::ExperimentConfig ab = two, ba = two;
    ab.workload_mix = {"gzip", "gcc"};
    ba.workload_mix = {"gcc", "gzip"};
    EXPECT_NE(core::fingerprint_config(ab),
              core::fingerprint_config(ba));
    EXPECT_NE(core::fingerprint_config(ab),
              core::fingerprint_config(explicit_mix));

    // Identical configs still agree, of course.
    core::ExperimentConfig ab2 = ab;
    EXPECT_EQ(core::fingerprint_config(ab),
              core::fingerprint_config(ab2));
}

TEST(MulticoreFingerprint, SerializedResultsRoundTrip)
{
    core::ExperimentConfig config = small_config(30'000);
    config.collect_l2 = true;
    config.core_count = 2;
    config.workload_mix = {"stream", "gzip"};
    const core::ExperimentResult result =
        multicore::run_multicore("stream", config).to_experiment_result();
    const std::string bytes = core::serialize_result(result);
    auto restored = core::deserialize_result(bytes);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(core::serialize_result(*restored), bytes);
    EXPECT_EQ(restored->workload, "mc2:stream+gzip");
}

TEST(MulticoreChaos, InjectedFaultFailsOneJobAndSparesSiblings)
{
    if (!util::fault::kEnabled)
        GTEST_SKIP() << "fault injector compiled out";

    core::ExperimentConfig config = small_config(20'000);
    config.core_count = 2;

    // Fault-free reference bytes for the surviving sibling.
    ASSERT_TRUE(util::fault::configure("", 7));
    const auto clean = core::run_suite({"gzip", "gcc"}, config);
    ASSERT_EQ(clean.size(), 2u);

    ASSERT_TRUE(util::fault::configure("simulate@gzip=1", 7));
    core::SuiteOutcome outcome =
        core::run_suite_isolated({"gzip", "gcc"}, config);
    util::fault::reset();

    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures.front().workload, "gzip");
    EXPECT_EQ(outcome.failures.front().kind,
              util::ErrorKind::FaultInjected);
    EXPECT_EQ(outcome.failures.front().retries, core::kMaxJobRetries);
    ASSERT_TRUE(outcome.slots[1].has_value());
    EXPECT_EQ(core::serialize_result(*outcome.slots[1]),
              core::serialize_result(clean[1]));
}

TEST(MulticoreChaos, CorruptedDirectoryFailsOneJobTypedInternal)
{
    if (!util::fault::kEnabled)
        GTEST_SKIP() << "fault injector compiled out";

    core::ExperimentConfig config = small_config(20'000);
    config.core_count = 2;

    ASSERT_TRUE(util::fault::configure("", 7));
    const auto clean = core::run_suite({"gzip", "gcc"}, config);
    ASSERT_EQ(clean.size(), 2u);

    // One flipped mirrored tag in the gzip job's directory; the
    // end-of-run check must catch it and fail that job alone.
    ASSERT_TRUE(util::fault::configure("directory@gzip=1", 7));
    core::SuiteOutcome outcome =
        core::run_suite_isolated({"gzip", "gcc"}, config);
    const std::uint64_t flips =
        util::fault::injected_count(util::fault::Site::Directory);
    util::fault::reset();

    EXPECT_EQ(flips, 1u);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures.front().workload, "gzip");
    EXPECT_EQ(outcome.failures.front().kind, util::ErrorKind::Internal);
    EXPECT_EQ(outcome.failures.front().retries, 0u); // not transient
    ASSERT_TRUE(outcome.slots[1].has_value());
    EXPECT_EQ(core::serialize_result(*outcome.slots[1]),
              core::serialize_result(clean[1]));
}
