/**
 * @file
 * Multicore request latency and commit bench, end to end through
 * leakboundd.
 *
 * Starts an in-process daemon and issues three requests:
 *
 *   1. cold single-core  (the N=1 baseline for the same benchmark)
 *   2. cold multicore    (core_count + workload_mix; distinct
 *                         fingerprint, so the baseline cannot warm it)
 *   3. warm multicore    (repeat of 2 — must load from the artifact
 *                         cache, proving multicore results commit and
 *                         round-trip byte-identically)
 *
 * and emits BENCH_multicore_serve.json with the three wall times and
 * the daemon's run counters.  Checks enforced (exit 3 otherwise): the
 * warm response's digest equals the cold multicore one, and the warm
 * run reports from_cache while the cold one does not.  The response
 * LRU is disabled so the warm probe exercises the artifact cache, not
 * the rendered-bytes cache.
 */

#include <chrono>
#include <cstdio>
#include <thread>

#include "core/artifact_cache.hpp"
#include "core/suite_flags.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/binary_io.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;

namespace {

struct TimedResponse
{
    double seconds = 0.0;
    std::string result_fnv;
    bool from_cache = false;
};

TimedResponse
timed_call(const serve::Endpoint &endpoint,
           const serve::RunRequest &request, serve::Server &server,
           std::thread &serving)
{
    const auto begun = std::chrono::steady_clock::now();
    auto response = serve::call_endpoint(
        endpoint, serve::build_run_request(request));
    TimedResponse out;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - begun)
                      .count();
    if (!response) {
        server.request_drain();
        serving.join();
        util::fatal("request failed: ", response.status().to_string());
    }
    const util::JsonValue &body = response.value();
    const util::JsonValue *runs = body.find("benchmarks");
    if (runs == nullptr || !runs->is_array() || runs->array().empty()) {
        server.request_drain();
        serving.join();
        util::fatal("malformed run response");
    }
    const util::JsonValue &run = runs->array()[0];
    out.result_fnv = run.find("result_fnv")->string_value();
    out.from_cache = run.find("from_cache")->bool_value();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    util::install_signal_handlers();
    util::fault::configure_from_env();

    util::Cli cli("bench_multicore",
                  "multicore request latency and cache commit through "
                  "leakboundd");
    core::SuiteFlagSpec spec;
    spec.suite_passes = false;
    spec.default_instructions = 200'000;
    core::register_suite_flags(cli, spec);
    cli.add_flag("core-count", "cores in the multicore request", "4");
    cli.add_flag("workload-mix",
                 "comma-separated per-core benchmarks (must match "
                 "--core-count)",
                 "stream,chase,stream,gzip");
    cli.add_flag("workers", "scheduler suite workers in the daemon",
                 "2");
    cli.parse(argc, argv);

    serve::ServerConfig config;
    config.listen_tcp = true; // ephemeral loopback port
    config.scheduler.workers =
        static_cast<unsigned>(cli.get_u64("workers"));
    config.scheduler.suite_jobs = core::suite_jobs(cli);
    config.scheduler.cache_dir =
        core::resolve_cache_dir(cli.get("cache-dir"));
    // Force the warm probe through the artifact cache: with the
    // response LRU on it would be answered from memory, proving nothing
    // about whether multicore results commit.
    config.scheduler.response_cache_bytes = 0;

    serve::Server server(config);
    if (util::Status started = server.start(); !started.ok())
        util::fatal("cannot start the daemon: ", started.to_string());
    std::thread serving([&server] {
        if (util::Status served = server.serve(); !served.ok())
            util::warn("serve failed: ", served.to_string());
    });

    serve::Endpoint endpoint;
    endpoint.tcp_port = server.tcp_port();

    serve::RunRequest request;
    request.instructions = cli.get_u64("instructions");
    request.workload_mix = util::split(cli.get("workload-mix"), ',');
    request.core_count =
        static_cast<std::uint32_t>(cli.get_u64("core-count"));
    for (const std::string &name : request.workload_mix)
        if (!workload::is_benchmark(name))
            util::fatal("unknown benchmark \"", name,
                        "\" in --workload-mix");
    if (request.workload_mix.size() != request.core_count)
        util::fatal("--workload-mix has ", request.workload_mix.size(),
                    " entries but --core-count is ",
                    request.core_count);
    request.benchmarks = {request.workload_mix.front()};

    serve::RunRequest single = request;
    single.core_count = 1;
    single.workload_mix.clear();

    const TimedResponse cold_single =
        timed_call(endpoint, single, server, serving);
    const TimedResponse cold_multi =
        timed_call(endpoint, request, server, serving);
    const TimedResponse warm_multi =
        timed_call(endpoint, request, server, serving);

    const serve::StatsSnapshot stats = server.stats();
    server.request_drain();
    serving.join();

    const bool digests_equal = !cold_multi.result_fnv.empty() &&
                               cold_multi.result_fnv ==
                                   warm_multi.result_fnv;
    const bool committed =
        !cold_multi.from_cache && warm_multi.from_cache;

    std::printf("cold single-core: %.3fs   cold %u-core: %.3fs   "
                "warm: %.3fs\ndigests %s, multicore %s\n",
                cold_single.seconds, request.core_count,
                cold_multi.seconds, warm_multi.seconds,
                digests_equal ? "equal" : "DIFFER",
                committed ? "committed" : "DID NOT COMMIT");

    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value("bench_multicore");
    w.key("description")
        .value("multicore request latency and cache commit");
    w.key("flags").begin_object();
    for (const auto &[name, value] : cli.snapshot())
        w.key(name).value(value);
    w.end_object();
    w.key("core_count")
        .value(static_cast<std::uint64_t>(request.core_count));
    w.key("workload_mix").value(request.workload_mix);
    w.key("instructions").value(request.instructions);
    w.key("cold_single_seconds").value(cold_single.seconds);
    w.key("cold_multicore_seconds").value(cold_multi.seconds);
    w.key("warm_multicore_seconds").value(warm_multi.seconds);
    w.key("digests_equal").value(digests_equal);
    w.key("multicore_committed").value(committed);
    w.key("stats").begin_object();
    w.key("requests_served").value(stats.requests_served);
    w.key("sim_runs").value(stats.sim_runs);
    w.key("cache_hits").value(stats.cache_hits);
    w.end_object();
    w.end_object();

    const std::string contents = w.str() + "\n";
    const std::string path = cli.get("json");
    if (!path.empty()) {
        if (util::Status wrote = util::write_file_atomic(path, contents);
            !wrote.ok())
            util::warn("cannot write report: ", wrote.to_string());
    }

    return digests_equal && committed ? 0 : 3;
}
