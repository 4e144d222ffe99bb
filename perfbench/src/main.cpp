/**
 * @file
 * leakbench: the leakbound benchmark program (perfbench/README.md).
 *
 *   leakbench --workload <paper_suite_cold|multicore_shared_l2|
 *                         daemon_sweep>
 *             --seed N --seconds S --trace 0|1 [--short]
 *   leakbench --regenerate-digests      print expected.json
 *   leakbench --perturb-check           the gate must catch a one-cell
 *                                       histogram perturbation
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, and the end-to-end metrics (untraced) or the
 * per-layer ledger (traced).  Every run also writes a report with the
 * host facts, supporting counts and (traced) all spans to
 * <work-dir>/reports/.  Exits non-zero when any check failed.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include <unistd.h>

#include "util/binary_io.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "workload/spec_suite.hpp"
#include "workloads.hpp"

using namespace leakbench;
using namespace leakbound;

namespace {

/** End-to-end metrics every untraced run prints. */
const char *const kEndToEnd[] = {
    "setup_s",
    "wall_s",
    "ns_per_instr",
    "peak_rss_mb",
};

/** Per-layer metrics every traced run prints. */
const char *const kLayers[] = {
    "workload.ns_per_instr",
    "cpu.ns_per_instr",
    "cpu.fetch_groups",
    "cpu.ipc",
    "cpu.stall_cycles_per_kinstr",
    "sim.ns_per_access",
    "sim.l1i.miss_rate",
    "sim.l1d.miss_rate",
    "sim.l2.miss_rate",
    "sim.l2.accesses",
    "interval.ns_per_access",
    "interval.intervals",
    "prefetch.ns_per_access",
    "prefetch.nl_covered_frac",
    "prefetch.stride_covered_frac",
    "core.listener_ns_per_instr",
    "core.eval_ms",
    "core.eval_cells",
    "core.serialize_ms",
    "artifact_cache.load_ms",
    "artifact_cache.store_ms",
    "artifact_cache.entry_kb",
    "multicore.ns_per_instr",
    "multicore.solo_ns_per_instr",
    "multicore.overhead_ns_per_instr",
    "multicore.invalidations",
    "multicore.l2_interval_closes",
    "serve.hot_p50_ms",
    "serve.stored_p50_ms",
    "serve.fresh_p50_ms",
    "serve.decode_us",
    "serve.render_us",
    "serve.lru_hit_frac",
    "serve.cache_hits",
    "serve.dedup_hits",
    "serve.rejected_overloaded",
    "serve.latency_samples",
    "serve.latency_beyond_p99",
    "ledger.layer_sum_ns_per_instr",
    "ledger.untraced_ns_per_instr",
    "ledger.residual_frac",
    "ledger.tolerance_frac",
    "trace.untraced_wall_s",
    "trace.traced_wall_s",
    "trace.overhead_frac",
    "failed_frac",
};

using WorkloadFn =
    std::function<void(const Options &, Expectations &, Tracer &, RunOutput &)>;

struct Entry
{
    const char *name;
    WorkloadFn run;
};

const Entry kWorkloads[] = {
    {"paper_suite_cold", run_paper_suite_cold},
    {"multicore_shared_l2", run_multicore_shared_l2},
    {"daemon_sweep", run_daemon_sweep},
};

const Entry *
find_workload(const std::string &name)
{
    for (const Entry &e : kWorkloads)
        if (name == e.name)
            return &e;
    return nullptr;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "leakbench: %s\n"
                 "usage: leakbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--short] [--data-dir D] [--work-dir D] "
                 "[--commit SHA]\n"
                 "       leakbench --regenerate-digests | --perturb-check\n",
                 why.c_str());
    std::exit(2);
}

std::string
metrics_json(const Metrics &metrics)
{
    std::string out = "{";
    char buf[64];
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        std::snprintf(buf, sizeof buf, "%.17g", metric.value);
        out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    return out + "}";
}

std::string
samples_json(const std::map<std::string, std::vector<double>> &samples)
{
    std::string out = "{";
    char buf[64];
    for (const auto &[name, values] : samples) {
        out += (out.size() > 1 ? ", \"" : "\"") + name + "\": [";
        for (std::size_t i = 0; i < values.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "",
                          values[i]);
            out += buf;
        }
        out += "]";
    }
    return out + "}";
}

/**
 * Fill the layers @p workload does not exercise from short traced
 * probes of the workloads that do, so every traced run carries the
 * whole ledger.  Probe figures are reported, never compared: the
 * workload that owns a layer is where it is measured.
 */
void
probe_missing_layers(const Options &options, Expectations &expected,
                     Tracer &tracer, RunOutput &out)
{
    for (const Entry &e : kWorkloads) {
        if (options.workload == e.name)
            continue;
        bool missing = false;
        for (const char *key : kLayers)
            missing = missing || (!out.layers.count(key) &&
                                  std::strcmp(key, "failed_frac") != 0);
        if (!missing)
            return;
        Options probe = options;
        probe.workload = e.name;
        probe.short_budget = true;
        probe.seconds = 1.0;
        RunOutput sub;
        e.run(probe, expected, tracer, sub);
        for (const auto &[key, metric] : sub.layers)
            out.layers.emplace(key, metric);
        out.outcome.merge(sub.outcome);
    }
}

/** Self-test of the gate: a one-cell perturbation must be caught. */
int
perturb_check(Expectations &expected)
{
    core::ExperimentConfig config;
    config.instructions = 100'000;
    config.extra_edges = core::standard_extra_edges();
    const std::string name = workload::suite_names().front();
    auto w = workload::make_benchmark(name);
    const core::ExperimentResult pristine = core::run_experiment(*w, config);
    const std::string key =
        "paper_suite_cold/" + std::to_string(config.instructions) + "/" + name;
    const bool clean_passes =
        conserved(pristine) && expected.matches(key, result_digest(pristine));

    // The benchmark's own copy, with one interval added to one cell.
    core::ExperimentResult copy = pristine;
    interval::Interval iv;
    iv.kind = interval::IntervalKind::Inner;
    iv.length = 1;
    iv.pf = interval::PrefetchClass::NonPrefetchable;
    iv.ends_in_reuse = true;
    copy.dcache.intervals.add(iv);
    const bool digest_caught = !expected.matches(key, result_digest(copy));
    const bool conservation_caught = !conserved(copy);
    std::printf("perturb-check: unperturbed result %s; perturbed copy: "
                "digest %s, conservation %s\n",
                clean_passes ? "passes" : "FAILS",
                digest_caught ? "caught" : "MISSED",
                conservation_caught ? "caught" : "MISSED");
    return clean_passes && digest_caught && conservation_caught ? 0 : 1;
}

/** Every input the digests pin, run once each (seconds = 0). */
int
regenerate(Options options, Expectations &expected)
{
    Tracer tracer(false);
    options.seconds = 0;
    for (bool short_budget : {true, false}) {
        options.short_budget = short_budget;
        RunOutput paper;
        options.workload = "paper_suite_cold";
        run_paper_suite_cold(options, expected, tracer, paper);
        for (std::uint64_t rotation = 0; rotation < 4; ++rotation) {
            RunOutput mc;
            options.workload = "multicore_shared_l2";
            options.seed = rotation;
            run_multicore_shared_l2(options, expected, tracer, mc);
        }
    }
    std::printf("%s\n", expected.to_json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.started = Clock::now();
    bool regenerate_digests = false;
    bool perturb = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                options.workload = next();
            } else if (arg == "--seed") {
                options.seed = std::stoull(next());
                have_seed = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(next());
                have_seconds = true;
            } else if (arg == "--trace") {
                const std::string v = next();
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                options.trace = v == "1";
                have_trace = true;
            } else if (arg == "--short") {
                options.short_budget = true;
            } else if (arg == "--data-dir") {
                options.data_dir = next();
            } else if (arg == "--work-dir") {
                options.work_dir = next();
            } else if (arg == "--commit") {
                options.commit = next();
            } else if (arg == "--regenerate-digests") {
                regenerate_digests = true;
            } else if (arg == "--perturb-check") {
                perturb = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }

    // Environment hygiene: a developer's LEAKBOUND_CACHE_DIR must never
    // turn a cold run warm, and only optimized builds without the fault
    // injector measure what users run.
    ::unsetenv("LEAKBOUND_CACHE_DIR");
#ifndef NDEBUG
    std::fprintf(stderr, "leakbench: refusing a build without NDEBUG "
                         "(debug builds re-simulate analytic runs)\n");
    return 2;
#endif
    if (util::fault::kEnabled) {
        std::fprintf(stderr, "leakbench: refusing a build with the fault "
                             "injector compiled in\n");
        return 2;
    }
    util::set_verbosity(util::Verbosity::Quiet);
    std::signal(SIGPIPE, SIG_IGN);
    std::filesystem::create_directories(options.work_dir + "/reports");
    // Private per process, so runs sharing a work directory never meet.
    options.scratch_dir =
        options.work_dir + "/run-" + std::to_string(::getpid());
    struct RemoveScratch
    {
        std::string dir;
        ~RemoveScratch()
        {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    } remove_scratch{options.scratch_dir};

    Expectations expected(options.data_dir + "/expected.json",
                          regenerate_digests);
    if (regenerate_digests)
        return regenerate(options, expected);
    if (perturb)
        return perturb_check(expected);

    const Entry *entry = find_workload(options.workload);
    if (entry == nullptr)
        usage("unknown workload '" + options.workload + "'");
    if (!have_seed || !have_seconds || !have_trace || options.seconds < 0)
        usage("--seed, --seconds and --trace are required");

    Tracer tracer(options.trace);
    RunOutput out;
    try {
        entry->run(options, expected, tracer, out);
        if (options.trace)
            probe_missing_layers(options, expected, tracer, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "leakbench: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }

    const double failed_frac =
        out.outcome.attempted()
            ? static_cast<double>(out.outcome.failed()) /
                  static_cast<double>(out.outcome.attempted())
            : 1.0;
    out.info["failed_frac"] = {failed_frac, "ratio"};
    out.layers["failed_frac"] = {failed_frac, "ratio"};
    out.e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};

    Metrics printed;
    bool complete = true;
    const Metrics &source = options.trace ? out.layers : out.e2e;
    auto pick = [&](const char *key) {
        const auto it = source.find(key);
        if (it == source.end()) {
            std::fprintf(stderr, "leakbench: metric %s was not measured\n",
                         key);
            complete = false;
            return;
        }
        printed[key] = it->second;
    };
    if (options.trace)
        for (const char *key : kLayers)
            pick(key);
    else
        for (const char *key : kEndToEnd)
            pick(key);

    const bool correct = complete && out.outcome.attempted() > 0 &&
                         out.outcome.failed() == 0;
    for (const std::string &why : out.outcome.problems())
        std::fprintf(stderr, "leakbench: check failed: %s\n", why.c_str());

    const std::string report =
        "{\"environment\": " + environment_json(options) +
        ", \"correct\": " + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(out.outcome.attempted()) +
        ", \"failed\": " + std::to_string(out.outcome.failed()) +
        ", \"end_to_end\": " + metrics_json(out.e2e) +
        ", \"layers\": " + metrics_json(out.layers) +
        ", \"info\": " + metrics_json(out.info) +
        ", \"samples\": " + samples_json(out.samples) +
        ", \"spans\": " + tracer.to_json() + "}\n";
    const std::string path = options.work_dir + "/reports/" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    if (util::Status wrote = util::write_file_atomic(path, report);
        !wrote.ok())
        std::fprintf(stderr, "leakbench: cannot write %s: %s\n",
                     path.c_str(), wrote.to_string().c_str());

    std::printf("environment: %s\n", environment_json(options).c_str());
    std::printf("info: %s\n", metrics_json(out.info).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.outcome.attempted()),
                static_cast<unsigned long long>(out.outcome.failed()),
                metrics_json(printed).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
