/**
 * @file
 * Implementation of the end-to-end experiment runner.
 */

#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "core/artifact_cache.hpp"
#include "core/inflection.hpp"
#include "core/policies.hpp"
#include "multicore/multicore.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::core {

namespace {

/**
 * The actual enumeration behind standard_extra_edges().  Walks every
 * stock policy at every tech node, which costs ~0.3 ms — fine for a
 * bench binary's startup, fatal on a daemon's per-request decode
 * path, hence the memoized wrapper below.
 */
std::vector<Cycles>
compute_standard_extra_edges()
{
    std::vector<Cycles> edges;
    auto absorb = [&edges](const PolicyPtr &policy) {
        for (Cycles t : policy->thresholds())
            edges.push_back(t);
    };

    for (power::TechNode node : power::all_nodes()) {
        const EnergyModel model(power::node_params(node));
        const InflectionPoints points = compute_inflection(model);
        for (bool cd : {true, false}) {
            absorb(make_opt_drowsy(model, cd));
            absorb(make_opt_sleep(model, points.drowsy_sleep, cd));
            absorb(make_opt_sleep(model, 10'000, cd));
            absorb(make_decay_sleep(model, 10'000, cd));
            absorb(make_opt_hybrid(model, cd));
            absorb(make_prefetch(model, PrefetchVariant::A,
                                 {interval::PrefetchClass::NextLine,
                                  interval::PrefetchClass::Stride},
                                 cd));
            absorb(make_prefetch(model, PrefetchVariant::B,
                                 {interval::PrefetchClass::NextLine,
                                  interval::PrefetchClass::Stride},
                                 cd));
            // Fig. 7 sweep and the decay-sweep ablation.
            for (Cycles t : {points.drowsy_sleep, Cycles{1200},
                             Cycles{1500}, Cycles{2000}, Cycles{3000},
                             Cycles{4000}, Cycles{5000}, Cycles{6000},
                             Cycles{7000}, Cycles{8000}, Cycles{9000},
                             Cycles{10000}}) {
                absorb(make_hybrid(model, t, cd));
                absorb(make_opt_sleep(model, t, cd));
            }
            for (Cycles t : {Cycles{1000}, Cycles{2000}, Cycles{4000},
                             Cycles{8000}, Cycles{16000}, Cycles{32000},
                             Cycles{64000}}) {
                absorb(make_decay_sleep(model, t, cd));
            }
            // Periodic drowsy windows (policy-zoo ablation).
            for (Cycles w : {Cycles{2000}, Cycles{4000}, Cycles{32000}}) {
                absorb(make_periodic_drowsy(model, w, cd));
            }
        }
    }
    // The node x CD x sweep nesting revisits many thresholds; return
    // the canonical sorted+unique form so downstream consumers (edge
    // construction, config fingerprinting) see a stable minimal list.
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

} // namespace

const std::vector<Cycles> &
standard_extra_edges()
{
    // The edge set is a pure function of the compiled-in policy zoo;
    // enumerate once (thread-safe static init) and hand out the one
    // immutable instance (the serve daemon consults it per request).
    static const std::vector<Cycles> edges =
        compute_standard_extra_edges();
    return edges;
}

util::Status
ExperimentConfig::validate() const
{
    if (util::Status s = core.validate(); !s.ok())
        return s;
    if (core_count == 0) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "core_count must be at least 1");
    }
    if (core_count > kMaxCoreCount) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "core_count " + std::to_string(core_count) +
                                " exceeds the maximum of " +
                                std::to_string(kMaxCoreCount));
    }
    if (!workload_mix.empty() && workload_mix.size() != core_count) {
        return util::Status(
            util::ErrorKind::InvalidArgument,
            "workload_mix has " + std::to_string(workload_mix.size()) +
                " entries but core_count is " + std::to_string(core_count));
    }
    for (const std::string &name : workload_mix) {
        if (!workload::is_benchmark(name)) {
            return util::Status(util::ErrorKind::InvalidArgument,
                                "workload_mix names unknown benchmark '" +
                                    name + "'");
        }
    }
    return util::Status();
}

ExperimentResult
run_experiment(workload::Workload &workload, const ExperimentConfig &config)
{
    const auto wall_start = std::chrono::steady_clock::now();
    ExperimentResult result =
        multicore::run_multicore(workload, config).to_experiment_result();
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    return result;
}

std::vector<ExperimentResult>
SuiteOutcome::surviving() &&
{
    std::vector<ExperimentResult> results;
    results.reserve(slots.size());
    for (auto &slot : slots) {
        if (slot)
            results.push_back(std::move(*slot));
    }
    return results;
}

namespace {

/** What one isolated job attempt chain produced. */
struct JobOutcome
{
    std::optional<ExperimentResult> result;
    util::ErrorKind kind = util::ErrorKind::None;
    std::string message;
    unsigned retries = 0;
};

/** Failure kinds worth a retry (transient by nature). */
bool
retryable(util::ErrorKind kind)
{
    return kind == util::ErrorKind::IoError ||
           kind == util::ErrorKind::FaultInjected;
}

} // namespace

SuiteOutcome
run_suite_isolated(const std::vector<std::string> &names,
                   const ExperimentConfig &config,
                   const SuiteJobHook &before_job)
{
    const unsigned jobs =
        std::min<std::size_t>(util::ThreadPool::effective_jobs(config.jobs),
                              std::max<std::size_t>(names.size(), 1));

    SuiteOutcome outcome;
    outcome.slots.resize(names.size());

    // The artifact cache turns repeat replays of a (workload, config)
    // pair into loads; keep_raw runs bypass it because raw intervals
    // are never persisted.  The config is fingerprinted once and
    // per-benchmark keys derived from it.
    const bool use_cache = !config.cache_dir.empty() && !config.keep_raw;
    std::optional<ArtifactCache> cache;
    std::uint64_t config_fp = 0;
    if (use_cache) {
        cache.emplace(config.cache_dir);
        config_fp = fingerprint_config(config);
    }

    auto run_or_load = [&config, &cache,
                        config_fp](workload::Workload &workload) {
        if (!cache)
            return run_experiment(workload, config);
        return cache->load_or_run(
            fingerprint_entry(config_fp, workload.name()),
            workload.name(),
            [&workload, &config] {
                return run_experiment(workload, config);
            });
    };

    // One isolated job: every failure mode funnels into a JobOutcome —
    // never an escaping exception — so the thread-pool boundary stays
    // quiet and sibling jobs are untouched.  Transient failures retry
    // with a fresh workload instance (the previous attempt may have
    // half-consumed it).
    auto attempt_job = [&run_or_load, &before_job,
                        &config](const std::string &name) -> JobOutcome {
        JobOutcome out;
        for (unsigned attempt = 0;; ++attempt) {
            if (!config.ignore_interrupts && util::interrupt_requested()) {
                out.kind = util::ErrorKind::Interrupted;
                out.message = "interrupted before " + name;
                out.retries = attempt;
                return out;
            }
            try {
                if (before_job)
                    before_job(name);
                if (util::fault::should_fail(util::fault::Site::Simulate,
                                             name)) {
                    throw util::StatusError(util::Status(
                        util::ErrorKind::FaultInjected,
                        "injected simulation fault: " + name));
                }
                workload::WorkloadPtr w = workload::make_benchmark(name);
                util::inform("simulating ", name, " (",
                             config.instructions, " instructions)");
                out.result = run_or_load(*w);
                out.retries = attempt;
                return out;
            } catch (const util::StatusError &e) {
                out.kind = e.status().kind();
                out.message = e.status().message();
            } catch (const std::exception &e) {
                out.kind = util::ErrorKind::Internal;
                out.message = e.what();
            }
            if (!retryable(out.kind) || attempt >= kMaxJobRetries) {
                out.retries = attempt;
                return out;
            }
            util::warn("suite job '", name, "' failed (", out.message,
                       "); retry ", attempt + 1, "/", kMaxJobRetries);
        }
    };

    std::vector<JobOutcome> job_outcomes(names.size());
    if (jobs <= 1) {
        for (std::size_t i = 0; i < names.size(); ++i)
            job_outcomes[i] = attempt_job(names[i]);
    } else {
        // Collecting futures in submission order makes the merge
        // deterministic: the output is bit-identical to the serial
        // loop for any jobs value.  Cache probes run inside the
        // workers too — distinct benchmarks map to distinct entries.
        // Names are validated on this thread first: an unknown
        // benchmark is a user error (fatal) and should die before any
        // worker spawns, exactly like the serial path.
        for (const std::string &name : names) {
            if (!workload::is_benchmark(name))
                (void)workload::make_benchmark(name); // fatal()s
        }
        util::inform("simulating ", names.size(), " benchmarks on ",
                     jobs, " threads (", config.instructions,
                     " instructions each)");
        util::ThreadPool pool(jobs);
        std::vector<std::future<JobOutcome>> futures;
        futures.reserve(names.size());
        for (const std::string &name : names) {
            futures.push_back(
                pool.submit([&attempt_job, &name] {
                    return attempt_job(name);
                }));
        }
        for (std::size_t i = 0; i < futures.size(); ++i)
            job_outcomes[i] = futures[i].get();
    }

    for (std::size_t i = 0; i < names.size(); ++i) {
        JobOutcome &out = job_outcomes[i];
        if (out.result) {
            outcome.slots[i] = std::move(out.result);
            continue;
        }
        if (out.kind == util::ErrorKind::Interrupted)
            outcome.interrupted = true;
        outcome.failures.push_back(SuiteJobFailure{
            i, names[i], out.kind, std::move(out.message), out.retries});
    }
    if (!config.ignore_interrupts && util::interrupt_requested())
        outcome.interrupted = true;
    if (cache)
        outcome.cache = cache->health();
    return outcome;
}

std::vector<ExperimentResult>
run_suite(const std::vector<std::string> &names,
          const ExperimentConfig &config)
{
    SuiteOutcome outcome = run_suite_isolated(names, config);
    if (!outcome.failures.empty()) {
        const SuiteJobFailure &first = outcome.failures.front();
        throw util::StatusError(util::Status(
            first.kind,
            "suite job '" + first.workload + "' failed: " + first.message));
    }
    return std::move(outcome).surviving();
}

} // namespace leakbound::core
