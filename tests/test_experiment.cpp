/**
 * @file
 * End-to-end integration tests: a full workload -> core -> hierarchy
 * -> interval pipeline, checking global invariants (frame-time
 * conservation, histogram/raw equivalence on live data, determinism,
 * LRU inclusion across associativities) and the paper-level orderings
 * on a real benchmark, plus the generalized model facade.
 */

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/generalized_model.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "prefetch/prefetchability.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;
using namespace leakbound::core;

namespace {

ExperimentConfig
small_config(bool keep_raw = false)
{
    ExperimentConfig config;
    config.instructions = 300'000;
    config.extra_edges = standard_extra_edges();
    config.keep_raw = keep_raw;
    return config;
}

const EnergyModel &
model70()
{
    static const EnergyModel m(power::node_params(power::TechNode::Nm70));
    return m;
}

} // namespace

TEST(Experiment, FrameTimeConservationOnRealRun)
{
    auto w = workload::make_benchmark("gzip");
    const ExperimentResult run = run_experiment(*w, small_config());

    // Every frame's timeline fully partitioned: total interval length
    // equals frames * cycles for both caches.
    const auto &icfg = sim::CacheConfig::alpha_l1i();
    const auto &dcfg = sim::CacheConfig::alpha_l1d();
    EXPECT_EQ(run.icache.intervals.total_length(),
              icfg.num_frames() * run.core.cycles);
    EXPECT_EQ(run.dcache.intervals.total_length(),
              dcfg.num_frames() * run.core.cycles);
    EXPECT_EQ(run.icache.intervals.num_frames(), icfg.num_frames());
    EXPECT_EQ(run.icache.intervals.total_cycles(), run.core.cycles);
}

TEST(Experiment, HistogramMatchesRawOnRealRun)
{
    auto w = workload::make_benchmark("mesa");
    const ExperimentResult run = run_experiment(*w, small_config(true));
    ASSERT_FALSE(run.dcache.raw.empty());

    for (const auto &policy :
         {make_opt_hybrid(model70()), make_decay_sleep(model70(), 10'000),
          make_prefetch(model70(), PrefetchVariant::B,
                        {interval::PrefetchClass::NextLine,
                         interval::PrefetchClass::Stride})}) {
        const SavingsResult hist =
            evaluate_policy(*policy, run.dcache.intervals);
        const SavingsResult raw = evaluate_policy_raw(
            *policy, run.dcache.raw,
            run.dcache.intervals.num_frames(),
            run.dcache.intervals.total_cycles());
        EXPECT_NEAR(hist.savings, raw.savings, 1e-10) << policy->name();
    }
}

TEST(Experiment, DeterministicAcrossRuns)
{
    auto w1 = workload::make_benchmark("applu");
    auto w2 = workload::make_benchmark("applu");
    const ExperimentResult a = run_experiment(*w1, small_config());
    const ExperimentResult b = run_experiment(*w2, small_config());
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.icache.stats.misses, b.icache.stats.misses);
    EXPECT_EQ(a.dcache.stats.misses, b.dcache.stats.misses);
    EXPECT_EQ(a.dcache.intervals.total_intervals(),
              b.dcache.intervals.total_intervals());
}

TEST(Experiment, SchemeOrderingMatchesPaperOnRealRun)
{
    // Fig. 8's structural claims, end to end on one benchmark:
    // OPT-Hybrid >= {OPT-Sleep(10K), Prefetch-B, OPT-Drowsy};
    // OPT-Sleep(10K) >= Sleep(10K); Prefetch-B >= Prefetch-A's power
    // savings; everything in [0, 1].
    auto w = workload::make_benchmark("gzip");
    const ExperimentResult run = run_experiment(*w, small_config());

    const auto points = compute_inflection(model70());
    const std::vector<interval::PrefetchClass> both = {
        interval::PrefetchClass::NextLine,
        interval::PrefetchClass::Stride};

    auto eval = [&](const PolicyPtr &p) {
        const double s = evaluate_policy(*p, run.dcache.intervals).savings;
        EXPECT_GE(s, 0.0) << p->name();
        EXPECT_LE(s, 1.0) << p->name();
        return s;
    };

    const double hybrid = eval(make_opt_hybrid(model70()));
    const double opt_sleep_b =
        eval(make_opt_sleep(model70(), points.drowsy_sleep));
    const double opt_sleep_10k = eval(make_opt_sleep(model70(), 10'000));
    const double decay = eval(make_decay_sleep(model70(), 10'000));
    const double drowsy = eval(make_opt_drowsy(model70()));
    const double pf_a =
        eval(make_prefetch(model70(), PrefetchVariant::A, both));
    const double pf_b =
        eval(make_prefetch(model70(), PrefetchVariant::B, both));
    const double active = eval(make_always_active(model70()));

    EXPECT_NEAR(active, 0.0, 1e-12);
    EXPECT_GE(hybrid, opt_sleep_b - 1e-12);
    EXPECT_GE(opt_sleep_b, opt_sleep_10k - 1e-12);
    EXPECT_GE(opt_sleep_10k, decay - 1e-12);
    EXPECT_GE(hybrid, drowsy - 1e-12);
    EXPECT_GE(hybrid, pf_b - 1e-12);
    EXPECT_GE(pf_b, pf_a - 1e-12);
}

TEST(Experiment, PrefetchabilityFractionsAreSane)
{
    auto w = workload::make_benchmark("gzip");
    const ExperimentResult run = run_experiment(*w, small_config());
    const auto points = compute_inflection(model70());

    const auto icache = prefetch::analyze_prefetchability(
        run.icache.intervals, points);
    const auto dcache = prefetch::analyze_prefetchability(
        run.dcache.intervals, points);

    for (const auto &r : {icache, dcache}) {
        EXPECT_GE(r.total_fraction, 0.0);
        EXPECT_LE(r.total_fraction, 1.0);
        EXPECT_NEAR(r.total_fraction,
                    r.next_line_fraction + r.stride_fraction, 1e-12);
    }
    // gzip streams: both caches must show nonzero NL coverage, and the
    // D-cache must show some stride coverage is possible but NL heavy.
    EXPECT_GT(icache.next_line_fraction, 0.0);
    EXPECT_GT(dcache.next_line_fraction, 0.0);
    // The I-cache never sees stride coverage (no load PCs).
    EXPECT_EQ(icache.stride_fraction, 0.0);
}

TEST(Experiment, StrideCoverageAppearsOnStridedBenchmark)
{
    auto w = workload::make_benchmark("applu");
    const ExperimentResult run = run_experiment(*w, small_config());
    const auto points = compute_inflection(model70());
    const auto dcache = prefetch::analyze_prefetchability(
        run.dcache.intervals, points);
    EXPECT_GT(dcache.stride_fraction, 0.0);
}

TEST(Experiment, GeneralizedModelEndToEnd)
{
    auto w = workload::make_benchmark("ammp");
    ExperimentConfig config = small_config();
    const ExperimentResult run = run_experiment(*w, config);

    for (power::TechNode node : power::all_nodes()) {
        GeneralizedModelInputs inputs;
        inputs.tech = power::node_params(node);
        const GeneralizedModelResult r =
            run_generalized_model(inputs, run.dcache.intervals);
        // Inflection points match the direct computation.
        const auto points = compute_inflection(inputs.tech);
        EXPECT_EQ(r.points.drowsy_sleep, points.drowsy_sleep);
        // The hybrid result dominates both single-technique bounds.
        EXPECT_GE(r.opt_hybrid.savings, r.opt_drowsy.savings - 1e-12);
        EXPECT_GE(r.opt_hybrid.savings, r.opt_sleep.savings - 1e-12);
    }
}

TEST(Experiment, Table2TrendHoldsEndToEnd)
{
    // OPT-Hybrid savings must increase monotonically as technology
    // scales 180nm -> 70nm (paper Table 2's headline trend).
    auto w = workload::make_benchmark("gzip");
    const ExperimentResult run = run_experiment(*w, small_config());

    double prev_i = 0.0, prev_d = 0.0;
    for (auto node : {power::TechNode::Nm180, power::TechNode::Nm130,
                      power::TechNode::Nm100, power::TechNode::Nm70}) {
        GeneralizedModelInputs inputs;
        inputs.tech = power::node_params(node);
        const auto icache =
            run_generalized_model(inputs, run.icache.intervals);
        const auto dcache =
            run_generalized_model(inputs, run.dcache.intervals);
        EXPECT_GE(icache.opt_hybrid.savings, prev_i - 1e-9)
            << inputs.tech.name;
        EXPECT_GE(dcache.opt_hybrid.savings, prev_d - 1e-9)
            << inputs.tech.name;
        prev_i = icache.opt_hybrid.savings;
        prev_d = dcache.opt_hybrid.savings;
    }
}

TEST(Experiment, L2CollectionInvariants)
{
    auto w = workload::make_benchmark("gcc");
    ExperimentConfig config = small_config();
    config.collect_l2 = true;
    const ExperimentResult run = run_experiment(*w, config);

    ASSERT_TRUE(run.l2cache.has_value());
    const auto &l2 = run.l2cache->intervals;
    // Frame-time conservation holds for the L2 too.
    EXPECT_EQ(l2.total_length(),
              sim::CacheConfig::alpha_l2().num_frames() * run.core.cycles);
    // The L2 sees exactly the L1 misses.
    EXPECT_EQ(run.l2cache->stats.accesses,
              run.icache.stats.misses + run.dcache.stats.misses);
    // The bound on the mostly-idle L2 dominates the L1 bounds.
    const auto bound = make_opt_hybrid(model70());
    const double l2_savings = evaluate_policy(*bound, l2).savings;
    EXPECT_GE(l2_savings,
              evaluate_policy(*bound, run.dcache.intervals).savings);
    EXPECT_GT(l2_savings, 0.9);
}

TEST(Experiment, L2CollectionOffByDefault)
{
    auto w = workload::make_benchmark("gzip");
    ExperimentConfig config = small_config();
    config.instructions = 20'000;
    const ExperimentResult run = run_experiment(*w, config);
    EXPECT_FALSE(run.l2cache.has_value());
}

TEST(Experiment, StandardExtraEdgesAreSortedAndUnique)
{
    // Downstream consumers — histogram construction and the artifact
    // cache fingerprint — rely on the canonical sorted+deduped form.
    const std::vector<Cycles> &edges = standard_extra_edges();
    ASSERT_FALSE(edges.empty());
    for (std::size_t i = 1; i < edges.size(); ++i)
        EXPECT_LT(edges[i - 1], edges[i]) << "index " << i;
}

TEST(Experiment, RunSuiteCoversAllBenchmarks)
{
    ExperimentConfig config = small_config();
    config.instructions = 50'000;
    const auto results =
        run_suite({"gzip", "ammp"}, config);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].workload, "gzip");
    EXPECT_EQ(results[1].workload, "ammp");
    for (const auto &r : results) {
        EXPECT_EQ(r.core.instructions, 50'000u);
        EXPECT_GT(r.core.cycles, 0u);
    }
}

TEST(Experiment, MissesMonotoneInAssociativity)
{
    // Fixed set count, growing ways: LRU's inclusion property says the
    // bigger cache's contents are a superset at every access, so both
    // L1 miss counts are non-increasing.
    for (const char *name : {"stream", "stencil", "chase"}) {
        std::uint64_t prev_imisses = ~0ull;
        std::uint64_t prev_dmisses = ~0ull;
        for (std::uint32_t ways : {1u, 2u, 4u, 8u}) {
            ExperimentConfig config;
            config.instructions = 200'000;
            // 64 sets x 64B lines, per-way size scaling with ways.
            for (sim::CacheConfig *level :
                 {&config.hierarchy.l1i, &config.hierarchy.l1d}) {
                level->line_bytes = 64;
                level->associativity = ways;
                level->size_bytes = 64ull * 64 * ways;
            }
            auto w = workload::make_benchmark(name);
            const ExperimentResult run = run_experiment(*w, config);
            EXPECT_LE(run.icache.stats.misses, prev_imisses)
                << name << " ways=" << ways;
            EXPECT_LE(run.dcache.stats.misses, prev_dmisses)
                << name << " ways=" << ways;
            prev_imisses = run.icache.stats.misses;
            prev_dmisses = run.dcache.stats.misses;
        }
    }
}
