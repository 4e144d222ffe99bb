/**
 * @file
 * The two simulation workloads: paper_suite_cold and
 * multicore_shared_l2 (see workloads.hpp and perfbench/README.md).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/artifact_cache.hpp"
#include "core/energy_model.hpp"
#include "core/generalized_model.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "ledger.hpp"
#include "multicore/multicore.hpp"
#include "power/technology.hpp"
#include "workload/spec_suite.hpp"
#include "workloads.hpp"

namespace leakbench {

using namespace leakbound;

namespace {

/** Instructions per paper benchmark (full / self-test). */
constexpr std::uint64_t kPaperInstructions = 500'000;
constexpr std::uint64_t kPaperShortInstructions = 100'000;

/** Instructions per core of the 8-core mix (full / self-test). */
constexpr std::uint64_t kMulticoreInstructions = 100'000;
constexpr std::uint64_t kMulticoreShortInstructions = 20'000;
constexpr std::uint32_t kMulticoreCores = 8;
constexpr unsigned kSharedL2Ways = 16;

/** Stated tolerance of the layer-sum cross-check (share of e2e). */
constexpr double kLedgerTolerance = 0.10;

std::string
budget_key(const char *workload, std::uint64_t instructions)
{
    return std::string(workload) + "/" + std::to_string(instructions);
}

// ---------------------------------------------------------------------
// paper_suite_cold

/** Everything a cold paper-suite pass needs, built before timing. */
struct PaperSetup
{
    core::ExperimentConfig config;
    /** The six benchmarks in this seed's job order. */
    std::vector<std::string> order;
    /** Fig. 8 schemes at 70nm for the I- and D-cache. */
    std::vector<core::PolicyPtr> ipolicies;
    std::vector<core::PolicyPtr> dpolicies;
};

PaperSetup
make_paper_setup(const Options &options)
{
    PaperSetup s;
    s.config.instructions = options.short_budget ? kPaperShortInstructions
                                                 : kPaperInstructions;
    s.config.extra_edges = core::standard_extra_edges();
    s.config.jobs = 1;
    s.config.cache_dir.clear();
    s.config.hierarchy.validate();
    if (util::Status valid = s.config.validate(); !valid.ok())
        throw util::StatusError(valid);
    s.order = workload::suite_names();
    shuffle(s.order, options.seed);

    const core::EnergyModel model(power::node_params(power::TechNode::Nm70));
    using interval::PrefetchClass;
    const std::vector<PrefetchClass> icls = {PrefetchClass::NextLine};
    const std::vector<PrefetchClass> dcls = {PrefetchClass::NextLine,
                                             PrefetchClass::Stride};
    for (int side = 0; side < 2; ++side) {
        auto &out = side == 0 ? s.ipolicies : s.dpolicies;
        const auto &cls = side == 0 ? icls : dcls;
        out.push_back(core::make_opt_drowsy(model));
        out.push_back(core::make_decay_sleep(model, 10'000));
        out.push_back(core::make_opt_sleep(model, 10'000));
        out.push_back(core::make_opt_hybrid(model));
        out.push_back(
            core::make_prefetch(model, core::PrefetchVariant::A, cls));
        out.push_back(
            core::make_prefetch(model, core::PrefetchVariant::B, cls));
    }
    return s;
}

std::vector<const core::Policy *>
raw(const std::vector<core::PolicyPtr> &policies)
{
    std::vector<const core::Policy *> out;
    for (const auto &p : policies)
        out.push_back(p.get());
    return out;
}

/** Fig. 8 over @p results (any order): one cell per scheme x run x side. */
std::vector<core::SavingsResult>
evaluate_fig8(const PaperSetup &s,
              const std::vector<const core::ExperimentResult *> &results)
{
    std::vector<const interval::IntervalHistogramSet *> isets, dsets;
    for (const core::ExperimentResult *r : results) {
        isets.push_back(&r->icache.intervals);
        dsets.push_back(&r->dcache.intervals);
    }
    auto grid = core::evaluate_policy_grid(raw(s.ipolicies), isets, 1);
    auto dgrid = core::evaluate_policy_grid(raw(s.dpolicies), dsets, 1);
    grid.insert(grid.end(), dgrid.begin(), dgrid.end());
    return grid;
}

/**
 * The grid's savings in canonical (suite_names) benchmark order, so
 * the digest does not depend on the seed's job order.
 */
std::vector<double>
canonical_savings(const std::vector<core::SavingsResult> &grid,
                  const std::vector<std::string> &order)
{
    const std::size_t runs = order.size();
    const std::size_t schemes = grid.size() / (2 * runs);
    std::vector<double> values;
    for (std::size_t side = 0; side < 2; ++side)
        for (std::size_t p = 0; p < schemes; ++p)
            for (const std::string &name : workload::suite_names()) {
                const std::size_t r = static_cast<std::size_t>(
                    std::find(order.begin(), order.end(), name) -
                    order.begin());
                values.push_back(
                    grid[side * schemes * runs + p * runs + r].savings);
            }
    return values;
}

/** One cold pass: set-up, the six simulations, then the Fig. 8 grid. */
struct PaperPass
{
    /** One slot per benchmark in job order; empty where the job threw. */
    std::vector<std::optional<core::ExperimentResult>> slots;
    std::vector<std::string> errors;
    std::vector<core::SavingsResult> grid;
    /** Per job, in job order. */
    std::vector<double> job_s;
    double eval_s = 0.0;
    double setup_s = 0.0;
    double sim_s = 0.0;
    /** The timed part: the jobs and the grid, without placement. */
    double wall_s = 0.0;
    std::uint64_t instructions = 0;
};

/**
 * Set-up constructs the six cold workloads; the timed part runs each
 * through core::run_experiment on one thread with no artifact cache
 * (what the suite runner does per job), then evaluates Fig. 8.  Each
 * job and the grid run on the CPU @p placement finds quietest; the
 * probes are not timed.  Spans
 * wrap every layer call when @p tracer is enabled.
 */
PaperPass
paper_pass(const PaperSetup &s, Clock::time_point setup_begun,
           Tracer &tracer, std::uint64_t id, CpuPlacement &placement)
{
    PaperPass pass;
    std::vector<workload::WorkloadPtr> workloads;
    for (const std::string &name : s.order)
        workloads.push_back(workload::make_benchmark(name));
    pass.setup_s = seconds_since(setup_begun);

    std::vector<const core::ExperimentResult *> results;
    {
        ScopedSpan pass_span(tracer, "pass", -1, id);
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            placement.place_on_quietest();
            const auto job_begun = Clock::now();
            try {
                ScopedSpan run(tracer, "core.run_experiment", pass_span.id(),
                               id);
                pass.slots.emplace_back(
                    core::run_experiment(*workloads[i], s.config));
            } catch (const std::exception &e) {
                pass.slots.emplace_back();
                pass.errors.push_back(s.order[i] + ": " + e.what());
            }
            pass.job_s.push_back(seconds_since(job_begun));
            pass.sim_s += pass.job_s.back();
        }
        for (const auto &slot : pass.slots)
            if (slot)
                results.push_back(&*slot);
        if (results.size() == s.order.size()) {
            placement.place_on_quietest();
            const auto eval_begun = Clock::now();
            ScopedSpan eval(tracer, "core.evaluate_policy_grid",
                            pass_span.id(), id);
            pass.grid = evaluate_fig8(s, results);
            pass.eval_s = seconds_since(eval_begun);
        }
    }
    pass.wall_s = pass.sim_s + pass.eval_s;
    for (const core::ExperimentResult *r : results)
        pass.instructions += r->core.instructions;
    return pass;
}

/** Correctness gate of one pass: one operation per job, plus the grid. */
void
check_paper_pass(const PaperSetup &s, const PaperPass &pass,
                 Expectations &expected, Outcome &outcome)
{
    const std::string prefix =
        budget_key("paper_suite_cold", s.config.instructions);
    for (const std::string &error : pass.errors)
        std::fprintf(stderr, "leakbench: job failed: %s\n", error.c_str());
    for (std::size_t i = 0; i < s.order.size(); ++i) {
        const auto &slot = pass.slots[i];
        if (!slot) {
            outcome.record(false, "job failed: " + s.order[i]);
            continue;
        }
        const std::string key = prefix + "/" + s.order[i];
        if (!conserved(*slot))
            outcome.record(false, "conservation broken: " + key);
        else
            outcome.record(expected.matches(key, result_digest(*slot)),
                           "digest mismatch: " + key);
    }
    if (pass.grid.empty()) {
        outcome.record(false, "fig8 grid not evaluated");
        return;
    }
    const std::string key = prefix + "/fig8_grid";
    outcome.record(expected.matches(
                       key, values_digest(canonical_savings(pass.grid,
                                                            s.order))),
                   "digest mismatch: " + key);
}

} // namespace

void
tracing_overhead(double untraced_wall_s, double traced_wall_s, RunOutput &out)
{
    out.layers["trace.untraced_wall_s"] = {untraced_wall_s, "s"};
    out.layers["trace.traced_wall_s"] = {traced_wall_s, "s"};
    out.layers["trace.overhead_frac"] = {traced_wall_s / untraced_wall_s - 1.0,
                                         "ratio"};
}

void
iteration_metrics(const std::vector<double> &setup, double wall_s,
                  double ns_per_instr, RunOutput &out)
{
    out.samples["setup_s"] = setup;
    out.e2e["setup_s"] = {median(setup), "s"};
    out.e2e["wall_s"] = {wall_s, "s"};
    out.e2e["ns_per_instr"] = {ns_per_instr, "ns"};
}

void
latency_metrics(const std::vector<double> &samples_ms, RunOutput &out)
{
    const double p99 = quantile(samples_ms, 0.99);
    out.info["latency_p50_ms"] = {quantile(samples_ms, 0.50), "ms"};
    out.info["latency_p99_ms"] = {p99, "ms"};
    out.info["latency_samples"] = {static_cast<double>(samples_ms.size()),
                                   "count"};
    out.info["latency_beyond_p99"] = {
        static_cast<double>(std::count_if(samples_ms.begin(),
                                          samples_ms.end(),
                                          [p99](double v) { return v > p99; })),
        "count"};
}

namespace {

/** The fastest time of every job and of the grid over a run's passes. */
struct FastestPass
{
    std::vector<std::vector<double>> job_s; ///< per job: one per pass
    std::vector<double> eval_s;
    std::uint64_t instructions = 0;

    void
    add(const PaperPass &pass)
    {
        job_s.resize(pass.job_s.size());
        for (std::size_t i = 0; i < pass.job_s.size(); ++i)
            job_s[i].push_back(pass.job_s[i]);
        eval_s.push_back(pass.eval_s);
        instructions = pass.instructions;
    }

    double
    sim_s() const
    {
        double sum = 0.0;
        for (const std::vector<double> &samples : job_s)
            sum += minimum(samples);
        return sum;
    }

    double wall_s() const { return sim_s() + minimum(eval_s); }

    double
    ns_per_instr() const
    {
        return sim_s() * 1e9 /
               static_cast<double>(std::max<std::uint64_t>(instructions, 1));
    }
};

} // namespace

void
run_paper_suite_cold(const Options &options, Expectations &expected,
                     Tracer &tracer, RunOutput &out)
{
    const PaperSetup s = make_paper_setup(options);

    Tracer quiet(false);
    CpuPlacement placement;
    std::vector<double> setup, job_ms;
    FastestPass untraced, traced;
    std::optional<PaperPass> last;

    // A traced run follows every untraced pass with a traced pass and a
    // ledger round, so all three see the same spells of host contention.
    std::optional<Ledger> ledger;
    std::vector<LedgerRound> rounds;
    if (options.trace)
        ledger.emplace(s.order, s.config);
    repeat_for(options.seconds, 3, [&](int p) {
        placement.place_on_quietest();
        PaperPass pass = paper_pass(
            s, p == 0 ? options.started : Clock::now(), quiet, p, placement);
        check_paper_pass(s, pass, expected, out.outcome);
        setup.push_back(pass.setup_s);
        untraced.add(pass);
        for (double job : pass.job_s)
            job_ms.push_back(job * 1e3);
        const double timed = pass.wall_s;
        last = std::move(pass);
        if (!options.trace)
            return timed;
        placement.place_on_quietest();
        PaperPass traced_pass =
            paper_pass(s, Clock::now(), tracer, p, placement);
        check_paper_pass(s, traced_pass, expected, out.outcome);
        for (const auto &slot : traced_pass.slots) {
            ScopedSpan ser(tracer, "core.serialize_result", -1, p);
            if (slot)
                (void)core::serialize_result(*slot);
        }
        traced.add(traced_pass);
        const auto begun = Clock::now();
        rounds.push_back(ledger->round(p, tracer, out.outcome, placement));
        return timed + traced_pass.wall_s + seconds_since(begun);
    });

    // Other tenants of the host only ever add time, in spells that come
    // and go within seconds: each job's fastest pass is its own cost.
    iteration_metrics(setup, untraced.wall_s(), untraced.ns_per_instr(), out);
    latency_metrics(job_ms, out);
    out.samples["job_ms"] = job_ms;
    out.info["probe_us"] = {placement.fastest_probe_s() * 1e6, "us"};
    if (!options.trace)
        return;

    Metrics layers = ledger->summarize(rounds);
    out.layers.insert(layers.begin(), layers.end());
    std::vector<const core::ExperimentResult *> results;
    for (const auto &slot : last->slots)
        if (slot)
            results.push_back(&*slot);
    Metrics counts = count_metrics(results);
    out.layers.insert(counts.begin(), counts.end());

    auto ms = [](std::vector<double> ns) { return median(ns) / 1e6; };
    out.layers["core.eval_ms"] = {minimum(untraced.eval_s) * 1e3, "ms"};
    out.layers["core.eval_cells"] = {
        static_cast<double>(last->grid.size()), "count"};
    out.layers["core.serialize_ms"] = {
        ms(tracer.durations_ns("core.serialize_result")), "ms"};
    Metrics cache = artifact_cache_metrics(
        results, s.config, options.scratch_dir + "/artifact-probe", tracer,
        out.outcome);
    out.layers.insert(cache.begin(), cache.end());

    tracing_overhead(untraced.wall_s(), traced.wall_s(), out);

    // Cross-check: the telescoped layer sum against the untraced
    // end-to-end ns/instr, both from each job's fastest run, within the
    // stated tolerance.  Self-test budgets are too small for the
    // tolerance to mean much; there the residual is reported, not
    // enforced.
    const double e2e = untraced.ns_per_instr();
    const double r = layers["ledger.layer_sum_ns_per_instr"].value / e2e - 1.0;
    out.layers["ledger.untraced_ns_per_instr"] = {e2e, "ns"};
    out.layers["ledger.residual_frac"] = {r, "ratio"};
    out.layers["ledger.tolerance_frac"] = {kLedgerTolerance, "ratio"};
    if (!options.short_budget)
        out.outcome.record(std::abs(r) <= kLedgerTolerance,
                           "layer sum misses untraced ns_per_instr by " +
                               std::to_string(r * 100) + "%");
}

// ---------------------------------------------------------------------
// multicore_shared_l2

namespace {

/** The cycled mix: every pattern twice over eight cores. */
const std::vector<std::string> kMixPattern = {"stream", "stencil", "chase",
                                              "gzip"};

struct MulticoreSetup
{
    core::ExperimentConfig config;
    core::GeneralizedModelInputs inputs;
    std::size_t rotation = 0;
};

MulticoreSetup
make_multicore_setup(const Options &options)
{
    MulticoreSetup s;
    s.config.instructions = options.short_budget
                                ? kMulticoreShortInstructions
                                : kMulticoreInstructions;
    s.config.extra_edges = core::standard_extra_edges();
    s.config.collect_l2 = true;
    s.config.hierarchy.l2.associativity = kSharedL2Ways;
    s.config.hierarchy.validate();
    s.config.core_count = kMulticoreCores;
    // The seed picks which pattern slot core 0 starts on.
    s.rotation = options.seed % kMixPattern.size();
    for (std::uint32_t i = 0; i < kMulticoreCores; ++i)
        s.config.workload_mix.push_back(
            kMixPattern[(i + s.rotation) % kMixPattern.size()]);
    if (util::Status valid = s.config.validate(); !valid.ok())
        throw util::StatusError(valid);
    (void)multicore::resolve_mix(s.config.workload_mix.front(), s.config);
    s.inputs.tech = power::node_params(power::TechNode::Nm70);
    // The bounds are exact only if every model threshold is a
    // histogram edge of the run; check before simulating.
    const auto edges =
        interval::IntervalHistogramSet::default_edges(s.config.extra_edges);
    for (Cycles t : core::generalized_model_thresholds(s.inputs))
        if (!std::binary_search(edges.begin(), edges.end(), t))
            throw util::StatusError(util::Status(
                util::ErrorKind::InvalidArgument,
                "bound threshold " + std::to_string(t) +
                    " is not a histogram edge"));
    return s;
}

/** Per-level 70nm OPT bounds: L1s pooled over cores, then the L2. */
std::vector<double>
multicore_bounds(const MulticoreSetup &s, const multicore::MulticoreResult &run)
{
    std::vector<core::SavingsResult> drowsy, sleep, hybrid;
    for (const multicore::CoreOutcome &c : run.cores) {
        for (const interval::IntervalHistogramSet *set :
             {&c.icache.intervals, &c.dcache.intervals}) {
            const auto r = core::run_generalized_model(s.inputs, *set);
            drowsy.push_back(r.opt_drowsy);
            sleep.push_back(r.opt_sleep);
            hybrid.push_back(r.opt_hybrid);
        }
    }
    std::vector<double> out = {core::combine_results(drowsy).savings,
                               core::combine_results(sleep).savings,
                               core::combine_results(hybrid).savings};
    if (run.l2cache) {
        const auto l2 = core::run_generalized_model(s.inputs,
                                                    run.l2cache->intervals);
        out.push_back(l2.opt_drowsy.savings);
        out.push_back(l2.opt_sleep.savings);
        out.push_back(l2.opt_hybrid.savings);
    }
    return out;
}

std::size_t
bound_cells(const multicore::MulticoreResult &run)
{
    return 3 * (2 * run.cores.size() + (run.l2cache ? 1 : 0));
}

/** Correctness gate of one multicore run (one operation). */
void
check_multicore(const MulticoreSetup &s, const multicore::MulticoreResult &run,
                const std::vector<double> &bounds, Expectations &expected,
                Outcome &outcome)
{
    const std::string prefix =
        budget_key("multicore_shared_l2", s.config.instructions) + "/rot" +
        std::to_string(s.rotation);
    bool ok = true;
    std::string why;
    if (!expected.matches(prefix,
                          result_digest(run.to_experiment_result()))) {
        ok = false;
        why = "digest mismatch: " + prefix;
    } else if (!expected.matches(prefix + "/bounds", values_digest(bounds))) {
        ok = false;
        why = "digest mismatch: " + prefix + "/bounds";
    }
    bool holds = run.l2cache && conserved(run.l2cache->intervals) &&
                 run.l2_banks.size() > 0;
    for (const auto &c : run.cores)
        holds = holds && conserved(c.icache.intervals) &&
                conserved(c.dcache.intervals);
    for (const auto &bank : run.l2_banks)
        holds = holds && conserved(bank);
    if (ok && !holds) {
        ok = false;
        why = "conservation broken: " + run.label;
    }
    outcome.record(ok, why);
}

} // namespace

void
run_multicore_shared_l2(const Options &options, Expectations &expected,
                        Tracer &tracer, RunOutput &out)
{
    MulticoreSetup s;
    std::vector<double> setup, wall, ns_per_instr, traced_wall, solo_ns;
    std::optional<multicore::MulticoreResult> last;
    Tracer quiet(false);
    CpuPlacement placement;
    // One iteration: the 8-core run, then its per-level bounds, with
    // spans around both when @p t is enabled.
    auto iteration = [&](Tracer &t, int id, double &sim_s) {
        const auto begun = Clock::now();
        ScopedSpan it(t, "multicore.iteration", -1, id);
        std::optional<multicore::MulticoreResult> run;
        {
            ScopedSpan span(t, "multicore.run_multicore", it.id(), id);
            run.emplace(multicore::run_multicore(
                s.config.workload_mix.front(), s.config));
        }
        sim_s = seconds_since(begun);
        std::vector<double> bounds;
        {
            ScopedSpan eval(t, "core.eval", it.id(), id);
            bounds = multicore_bounds(s, *run);
        }
        const double timed = seconds_since(begun);
        check_multicore(s, *run, bounds, expected, out.outcome);
        last = std::move(run);
        return timed;
    };
    // The mix's benchmarks single-core over the same hierarchy: the
    // solo baseline the interleaver's cost is measured against.  The
    // multicore engine always simulates, and so must the baseline (the
    // analytic fast path would claim stream/stencil/chase).
    auto solo_config = [&s] {
        core::ExperimentConfig solo = s.config;
        solo.core_count = 1;
        solo.workload_mix.clear();
        solo.engine = core::Engine::Sim;
        return solo;
    };
    auto solo_round = [&](int id) {
        const core::ExperimentConfig solo = solo_config();
        double seconds = 0;
        std::uint64_t instructions = 0;
        for (const std::string &name : kMixPattern) {
            auto w = workload::make_benchmark(name);
            placement.place_on_quietest();
            ScopedSpan span(tracer, "multicore.solo_run_experiment", -1, id);
            const auto begun = Clock::now();
            const core::ExperimentResult r = core::run_experiment(*w, solo);
            seconds += seconds_since(begun);
            instructions += r.core.instructions;
        }
        solo_ns.push_back(seconds * 1e9 / static_cast<double>(instructions));
        return seconds;
    };
    // A traced run follows each untraced iteration with a traced one
    // and a solo round, so all three see the same spells of host
    // contention.
    repeat_for(options.seconds, 3, [&](int i) {
        placement.place_on_quietest();
        const auto setup_begun = i == 0 ? options.started : Clock::now();
        s = make_multicore_setup(options);
        setup.push_back(seconds_since(setup_begun));
        double sim_s = 0;
        const double timed = iteration(quiet, i, sim_s);
        std::uint64_t instructions = 0;
        for (const auto &c : last->cores)
            instructions += c.stats.instructions;
        wall.push_back(timed);
        ns_per_instr.push_back(sim_s * 1e9 /
                               static_cast<double>(instructions));
        if (!options.trace)
            return timed;
        placement.place_on_quietest();
        const double traced = iteration(tracer, i, sim_s);
        traced_wall.push_back(traced);
        return timed + traced + solo_round(i);
    });

    // Other tenants of the host only ever add time, in spells that come
    // and go within seconds: the fastest iteration is the run's own cost.
    std::vector<double> wall_ms;
    for (double w : wall)
        wall_ms.push_back(w * 1e3);
    out.samples["wall_s"] = wall;
    iteration_metrics(setup, minimum(wall), minimum(ns_per_instr), out);
    latency_metrics(wall_ms, out);
    out.info["probe_us"] = {placement.fastest_probe_s() * 1e6, "us"};
    if (!options.trace)
        return;
    tracing_overhead(minimum(wall), minimum(traced_wall), out);

    out.layers["multicore.ns_per_instr"] = {minimum(ns_per_instr), "ns"};
    out.layers["multicore.solo_ns_per_instr"] = {minimum(solo_ns), "ns"};
    out.layers["multicore.overhead_ns_per_instr"] = {
        minimum(ns_per_instr) - minimum(solo_ns), "ns"};
    out.layers["multicore.invalidations"] = {
        static_cast<double>(last->invalidations), "count"};
    out.layers["multicore.l2_interval_closes"] = {
        static_cast<double>(last->l2_interval_closes), "count"};

    // Single-core layer ledger of the mix's benchmarks over the 16-way
    // L2 (L2 collection off: the stages mirror the L1 listener).
    core::ExperimentConfig staged = solo_config();
    staged.collect_l2 = false;
    Ledger staged_ledger(kMixPattern, staged);
    Metrics ledger = staged_ledger.summarize(
        staged_ledger.rounds(options.seconds / 8, tracer, out.outcome,
                             placement));
    for (const char *key :
         {"workload.ns_per_instr", "cpu.ns_per_instr", "sim.ns_per_access",
          "interval.ns_per_access", "prefetch.ns_per_access",
          "core.listener_ns_per_instr"})
        out.layers[key] = ledger[key];

    const core::ExperimentResult merged = last->to_experiment_result();
    Metrics counts = count_metrics({&merged});
    out.layers.insert(counts.begin(), counts.end());
    out.layers["core.eval_ms"] = {median(tracer.durations_ns("core.eval")) / 1e6,
                                  "ms"};
    out.layers["core.eval_cells"] = {static_cast<double>(bound_cells(*last)),
                                     "count"};
    std::vector<double> ser_ns;
    for (int i = 0; i < 5; ++i) {
        ScopedSpan span(tracer, "core.serialize_result", -1, i);
        const auto begun = Clock::now();
        (void)core::serialize_result(merged);
        ser_ns.push_back(seconds_since(begun) * 1e9);
    }
    out.layers["core.serialize_ms"] = {median(ser_ns) / 1e6, "ms"};
    Metrics cache = artifact_cache_metrics(
        {&merged}, s.config, options.scratch_dir + "/artifact-probe", tracer,
        out.outcome);
    out.layers.insert(cache.begin(), cache.end());
}

} // namespace leakbench
