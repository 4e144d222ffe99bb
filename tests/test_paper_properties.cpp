/**
 * @file
 * Paper-level property tests: every structural claim the evaluation
 * section makes, checked across all four technology nodes on seeded
 * synthetic interval populations (parameterized sweeps).  These are
 * the claims the bench suite visualizes; here they are asserted.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/generalized_model.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "power/technology.hpp"
#include "util/random.hpp"

using namespace leakbound;
using namespace leakbound::core;
using interval::Interval;
using interval::IntervalHistogramSet;
using interval::IntervalKind;
using interval::PrefetchClass;

namespace {

/** Population with all kinds, classes and regimes represented. */
std::vector<Interval>
rich_population(std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<Interval> out;
    for (int i = 0; i < 4000; ++i) {
        Interval iv;
        iv.kind = IntervalKind::Inner;
        iv.length = rng.next_below(1 << (3 + rng.next_below(19)));
        iv.pf = static_cast<PrefetchClass>(rng.next_below(3));
        iv.ends_in_reuse = rng.next_bool(0.6);
        out.push_back(iv);
    }
    for (int i = 0; i < 32; ++i) {
        Interval lead;
        lead.kind = IntervalKind::Leading;
        lead.length = rng.next_below(1 << 18);
        lead.ends_in_reuse = false;
        out.push_back(lead);
        Interval trail;
        trail.kind = IntervalKind::Trailing;
        trail.length = rng.next_below(1 << 20);
        trail.ends_in_reuse = false;
        out.push_back(trail);
        Interval untouched;
        untouched.kind = IntervalKind::Untouched;
        untouched.length = 3'000'000;
        untouched.ends_in_reuse = false;
        out.push_back(untouched);
    }
    return out;
}

/**
 * gtest prints the parameter's raw bytes into the test name, so
 * `zero_fill` covers what would be padding and the name stays the same
 * from build to build.
 */
struct Case
{
    Case(power::TechNode n, std::uint64_t s) : node(n), seed(s) {}

    power::TechNode node;
    std::uint32_t zero_fill = 0;
    std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<Case>);

std::string
case_name(const ::testing::TestParamInfo<Case> &info)
{
    const std::string n = power::node_params(info.param.node).name;
    return "Nm" + n.substr(0, n.size() - 2) + "_seed" +
           std::to_string(info.param.seed);
}

} // namespace

class PaperProperties : public ::testing::TestWithParam<Case>
{
  protected:
    void
    SetUp() override
    {
        tech_ = power::node_params(GetParam().node);
        raw_ = rich_population(GetParam().seed);
    }

    double
    savings(const PolicyPtr &policy) const
    {
        // Baseline = the population's own frame-time, so AlwaysActive
        // is exactly 0% savings (synthetic populations don't tile a
        // frames x cycles rectangle).
        std::uint64_t total = 0;
        for (const Interval &iv : raw_)
            total += iv.length;
        return evaluate_policy_raw(*policy, raw_, 1, total).savings;
    }

    power::TechnologyParams tech_;
    std::vector<Interval> raw_;
};

TEST_P(PaperProperties, SchemeDominanceChain)
{
    // Fig. 8's ordering: the oracle hybrid bounds everything; the
    // oracle variants bound their non-oracle counterparts.
    const EnergyModel model(tech_);
    const auto points = compute_inflection(model);
    const std::vector<PrefetchClass> both = {PrefetchClass::NextLine,
                                             PrefetchClass::Stride};

    const double hybrid = savings(make_opt_hybrid(model));
    EXPECT_GE(hybrid, savings(make_opt_drowsy(model)) - 1e-12);
    EXPECT_GE(hybrid,
              savings(make_opt_sleep(model, points.drowsy_sleep)) - 1e-12);
    EXPECT_GE(hybrid,
              savings(make_prefetch(model, PrefetchVariant::B, both)) -
                  1e-12);
    EXPECT_GE(savings(make_opt_sleep(model, 10'000)),
              savings(make_decay_sleep(model, 10'000)) - 1e-12);
    EXPECT_GE(savings(make_prefetch(model, PrefetchVariant::B, both)),
              savings(make_prefetch(model, PrefetchVariant::A, both)) -
                  1e-12);
    EXPECT_NEAR(savings(make_always_active(model)), 0.0, 1e-9);
}

TEST_P(PaperProperties, Fig7SweepIsMonotone)
{
    // Raising the minimum sleepable length can only lose savings, for
    // both the sleep-only and the hybrid scheme; hybrid dominates
    // sleep-only at every threshold.
    const EnergyModel model(tech_);
    double prev_sleep = 1.0, prev_hybrid = 1.0;
    for (Cycles threshold :
         {Cycles{1057}, Cycles{2000}, Cycles{5000}, Cycles{10000},
          Cycles{100000}}) {
        const double s = savings(make_opt_sleep(model, threshold));
        const double h = savings(make_hybrid(model, threshold));
        EXPECT_LE(s, prev_sleep + 1e-12) << threshold;
        EXPECT_LE(h, prev_hybrid + 1e-12) << threshold;
        EXPECT_GE(h, s - 1e-12) << threshold;
        prev_sleep = s;
        prev_hybrid = h;
    }
}

TEST_P(PaperProperties, MoreCoverageNeverHurtsPrefetch)
{
    // Enabling the stride class on top of next-line can only help
    // (Section 5.2: stride catches what next-line misses).
    const EnergyModel model(tech_);
    for (PrefetchVariant variant :
         {PrefetchVariant::A, PrefetchVariant::B}) {
        const double nl_only = savings(
            make_prefetch(model, variant, {PrefetchClass::NextLine}));
        const double nl_stride = savings(make_prefetch(
            model, variant,
            {PrefetchClass::NextLine, PrefetchClass::Stride}));
        EXPECT_GE(nl_stride, nl_only - 1e-12);
    }
}

TEST_P(PaperProperties, DecayImprovesOnNothingOnlyWithCounter)
{
    // The decay scheme must still beat doing nothing despite its
    // counter overhead on this population (sanity floor), and a
    // counter-free decay must beat the counted one.
    const EnergyModel model(tech_);
    power::TechnologyParams free_tech = tech_;
    free_tech.decay_counter_overhead = 0.0;
    const EnergyModel free_model(free_tech);

    const double counted = savings(make_decay_sleep(model, 10'000));
    const double free_decay =
        savings(make_decay_sleep(free_model, 10'000));
    EXPECT_GE(free_decay, counted - 1e-12);
}

TEST_P(PaperProperties, SavingsAlwaysInUnitInterval)
{
    const EnergyModel model(tech_);
    const auto points = compute_inflection(model);
    for (const auto &policy :
         {make_always_active(model), make_opt_drowsy(model),
          make_opt_sleep(model, points.drowsy_sleep),
          make_decay_sleep(model, 10'000), make_opt_hybrid(model)}) {
        const double s = savings(policy);
        EXPECT_GE(s, -1e-12) << policy->name();
        EXPECT_LE(s, 1.0) << policy->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllNodesAndSeeds, PaperProperties,
    ::testing::Values(Case{power::TechNode::Nm70, 1},
                      Case{power::TechNode::Nm70, 2},
                      Case{power::TechNode::Nm100, 1},
                      Case{power::TechNode::Nm100, 2},
                      Case{power::TechNode::Nm130, 1},
                      Case{power::TechNode::Nm130, 2},
                      Case{power::TechNode::Nm180, 1},
                      Case{power::TechNode::Nm180, 2}),
    case_name);
