/**
 * @file
 * Throughput/latency bench of the leakboundd service, in-process.
 *
 * Starts a daemon on an ephemeral loopback port, performs one cold
 * run (which populates the artifact cache when --cache-dir is set),
 * then fires --requests identical run requests from --concurrency
 * client threads — the warm phase, where responses come from the
 * dedup scheduler and the artifact cache rather than fresh
 * simulations.  Emits BENCH_serve.json with the cold/warm wall times,
 * warm throughput, client-observed latency percentiles and the
 * daemon's own /stats counters, so service-layer perf trajectories can
 * be tracked across commits like the simulator's.
 *
 * Flags come from the shared core/suite_flags.hpp family
 * (--instructions/--jobs/--cache-dir/--json) plus the load shape
 * (--requests/--concurrency/--workers), so the bench, the daemon and
 * the client all spell their knobs the same way.  --workers is also
 * the number of the daemon's event loops.
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

double
seconds_since(std::chrono::steady_clock::time_point begun)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begun)
        .count();
}

std::string
render_report(const util::Cli &cli, const serve::ServerConfig &config,
              double cold_seconds,
              bool lru_probe_identical, const serve::LoadReport &load,
              const serve::StatsSnapshot &stats)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("bench").value("bench_serve");
    w.key("description")
        .value("leakboundd warm throughput and latency under "
               "held-open connections (epoll event loop + response "
               "LRU)");
    w.key("flags").begin_object();
    for (const auto &[name, value] : cli.snapshot())
        w.key(name).value(value);
    w.end_object();
    w.key("workers")
        .value(static_cast<std::uint64_t>(config.scheduler.workers));
    w.key("suite_jobs")
        .value(static_cast<std::uint64_t>(config.scheduler.suite_jobs));
    w.key("cache_dir").value(config.scheduler.cache_dir);
    w.key("cold_seconds").value(cold_seconds);
    // The response-LRU contract, measured: a warm hit's bytes against
    // the cold render's bytes.
    w.key("lru_hit_byte_identical").value(lru_probe_identical);
    w.key("load").begin_object();
    w.key("sent").value(load.sent);
    w.key("ok").value(load.ok);
    w.key("overloaded").value(load.overloaded);
    w.key("errors").value(load.other_errors + load.shutting_down);
    w.key("idle_connections_held").value(load.idle_connections_held);
    w.key("wall_seconds").value(load.wall_seconds);
    w.key("throughput_rps")
        .value(load.wall_seconds > 0.0
                   ? static_cast<double>(load.ok) / load.wall_seconds
                   : 0.0);
    w.key("latency_p50_ms").value(load.latency_ms.p50());
    w.key("latency_p99_ms").value(load.latency_ms.p99());
    w.key("latency_max_ms").value(load.latency_ms.max());
    w.key("distinct_fingerprints").value(load.distinct_fingerprints);
    w.key("distinct_responses").value(load.distinct_responses);
    w.end_object();
    w.key("stats").begin_object();
    w.key("requests_served").value(stats.requests_served);
    w.key("dedup_hits").value(stats.dedup_hits);
    w.key("response_lru_hits").value(stats.response_lru_hits);
    w.key("response_lru_evictions").value(stats.response_lru_evictions);
    w.key("cache_hits").value(stats.cache_hits);
    w.key("rejected_overloaded").value(stats.rejected_overloaded);
    w.key("protocol_errors").value(stats.protocol_errors);
    w.key("sessions_accepted").value(stats.sessions_accepted);
    w.key("open_connections").value(stats.open_connections);
    w.end_object();
    // The spread-traffic A/B that retired the shard fleet (a single
    // fingerprint, as here, cannot show what parallel loops buy): one
    // warm request per paper benchmark, then six leakbound-client
    // --load 8000 --concurrency 2 --persistent --pipeline 4 at once, one
    // per paper benchmark, on a unix socket; req/s = 48,000 / the six
    // clients' wall time.  Ten rounds, arms in rotating order on fresh
    // cache directories, Release, 4 vCPUs.
    w.key("spread_traffic_ab").begin_object();
    w.key("nproc").value(static_cast<std::uint64_t>(4));
    w.key("rounds").value(static_cast<std::uint64_t>(10));
    auto arm = [&w](const char *name, const char *daemon, double q1,
                    double median, double q3) {
        w.key(name).begin_object();
        w.key("daemon").value(daemon);
        w.key("q1_rps").value(q1);
        w.key("median_rps").value(median);
        w.key("q3_rps").value(q3);
        w.end_object();
    };
    arm("shard_fleet",
        "leakboundd --shards 4 --workers 1, clients --shards 4 (deleted)",
        86200.0, 91100.0, 97300.0);
    arm("one_event_loop", "leakboundd --workers 4, one event loop",
        44900.0, 48900.0, 54200.0);
    arm("loop_per_worker", "leakboundd --workers 4, four event loops",
        133200.0, 134500.0, 139100.0);
    w.key("loop_per_worker_wins_of_10").begin_object();
    w.key("vs_shard_fleet").value(static_cast<std::uint64_t>(10));
    w.key("vs_one_event_loop").value(static_cast<std::uint64_t>(10));
    w.end_object();
    w.end_object();
    // The session-per-thread baseline this bench replaced (PR 5:
    // blocking I/O, no response LRU, 32 requests over 8 fresh
    // connections) — kept verbatim so before/after rides in one file.
    w.key("baseline_pr5").begin_object();
    w.key("io_model").value("thread-per-session, blocking sockets");
    w.key("throughput_rps").value(1098.84);
    w.key("latency_p50_ms").value(7.477);
    w.key("latency_p99_ms").value(14.320);
    w.key("requests").value(static_cast<std::uint64_t>(32));
    w.key("concurrency").value(static_cast<std::uint64_t>(8));
    w.key("idle_connections_held").value(static_cast<std::uint64_t>(0));
    w.end_object();
    w.end_object();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    util::install_signal_handlers();
    util::fault::configure_from_env();

    util::Cli cli("bench_serve",
                  "leakboundd warm-cache throughput and latency");
    core::SuiteFlagSpec spec;
    spec.suite_passes = false;
    spec.default_instructions = 200'000;
    core::register_suite_flags(cli, spec);
    cli.add_flag("benchmarks",
                 "comma-separated suite benchmarks per request", "gzip");
    cli.add_flag("requests", "warm-phase run requests", "64");
    cli.add_flag("concurrency", "client threads for the warm phase",
                 "8");
    cli.add_flag("workers",
                 "scheduler suite workers, and event loops, in the daemon",
                 "2");
    cli.add_flag("connections",
                 "idle connections held open through the warm phase",
                 "1000");
    cli.add_flag("pipeline",
                 "requests each warm client keeps in flight on its "
                 "connection",
                 "8");
    cli.parse(argc, argv);

    serve::ServerConfig config;
    config.scheduler.workers =
        static_cast<unsigned>(cli.get_u64("workers"));
    config.scheduler.suite_jobs = core::suite_jobs(cli);
    config.scheduler.cache_dir =
        core::resolve_cache_dir(cli.get("cache-dir"));
    config.scheduler.max_queue = cli.get_u64("requests");

    serve::RunRequest request;
    request.benchmarks = util::split(cli.get("benchmarks"), ',');
    for (const std::string &name : request.benchmarks)
        if (!workload::is_benchmark(name))
            util::fatal("unknown benchmark \"", name, "\"");
    request.instructions = cli.get_u64("instructions");

    config.listen_tcp = true; // ephemeral loopback port
    serve::Server server(config);
    if (util::Status started = server.start(); !started.ok())
        util::fatal("cannot start the daemon: ", started.to_string());
    std::thread serving([&server] {
        if (util::Status served = server.serve(); !served.ok())
            util::warn("serve failed: ", served.to_string());
    });
    serve::Endpoint endpoint;
    endpoint.tcp_port = server.tcp_port();

    auto call_once = [&](std::string *raw) {
        return serve::call_endpoint(endpoint,
                                    serve::build_run_request(request), raw);
    };
    auto teardown = [&] {
        server.request_drain();
        serving.join();
    };

    // Cold pass: one request simulates (and seeds both the artifact
    // cache and the response LRU).
    const auto cold_begun = std::chrono::steady_clock::now();
    std::string cold_raw;
    auto cold = call_once(&cold_raw);
    const double cold_seconds = seconds_since(cold_begun);
    if (!cold) {
        teardown();
        util::fatal("cold request failed: ",
                    cold.status().to_string());
    }

    // LRU probe: the very next identical request must be answered
    // from the response LRU with the cold render's exact bytes.
    std::string probe_raw;
    auto probe = call_once(&probe_raw);
    const bool lru_probe_identical = probe && probe_raw == cold_raw;

    // Warm phase: every response should come from the response LRU (or
    // at worst the in-flight dedup group), while --connections idle
    // sockets sit on the daemon costing nothing.
    serve::LoadOptions options;
    options.total = cli.get_u64("requests");
    options.concurrency =
        static_cast<unsigned>(cli.get_u64("concurrency"));
    options.idle_connections =
        static_cast<unsigned>(cli.get_u64("connections"));
    options.persistent = true;
    options.pipeline = static_cast<unsigned>(cli.get_u64("pipeline"));
    const serve::LoadReport load =
        serve::run_load(endpoint, request, options);

    const serve::StatsSnapshot stats = server.stats();
    teardown();

    std::printf(
        "cold: %.3fs   warm: %llu/%llu ok in %.3fs (%.0f req/s) with "
        "%llu idle conns\n"
        "latency: p50 %.2f ms, p99 %.2f ms   dedup %llu, lru %llu "
        "(byte-identical: %s), cache %llu\n",
        cold_seconds, static_cast<unsigned long long>(load.ok),
        static_cast<unsigned long long>(load.sent), load.wall_seconds,
        load.wall_seconds > 0.0
            ? static_cast<double>(load.ok) / load.wall_seconds
            : 0.0,
        static_cast<unsigned long long>(load.idle_connections_held),
        load.latency_ms.p50(), load.latency_ms.p99(),
        static_cast<unsigned long long>(stats.dedup_hits),
        static_cast<unsigned long long>(stats.response_lru_hits),
        lru_probe_identical ? "yes" : "NO",
        static_cast<unsigned long long>(stats.cache_hits));

    const std::string contents =
        render_report(cli, config, cold_seconds,
                      lru_probe_identical, load, stats) +
        "\n";
    const std::string path = cli.get("json");
    if (!path.empty()) {
        if (util::Status wrote = util::write_file_atomic(path, contents);
            !wrote.ok())
            util::warn("cannot write report: ", wrote.to_string());
    }

    const bool clean = load.ok == load.sent &&
                       load.distinct_responses <= 1 &&
                       lru_probe_identical &&
                       stats.response_lru_hits >= 1;
    return clean ? 0 : 3;
}
