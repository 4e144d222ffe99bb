/**
 * @file
 * `leakboundd` — the resident experiment daemon.
 *
 * Binds a Unix-domain socket (and optionally a loopback TCP port),
 * then serves length-prefixed JSON experiment requests until SIGINT /
 * SIGTERM, at which point it drains: in-flight experiments finish and
 * answer their clients, queued ones fail with shutting_down, and the
 * process exits 0.
 *
 * With --shards N the process becomes a shard supervisor instead: N
 * forked children each run the event loop on a derived endpoint (unix
 * "<socket>.<i>", TCP base port + 1 + i) over the shared artifact
 * cache, while the parent keeps them alive (heartbeats, /health
 * probes, capped-backoff restarts, crash-loop breaker) and answers
 * ping/health/stats on the base endpoint.  See README "Running as a
 * service".
 */

#include <cstdio>

#include "core/artifact_cache.hpp"
#include "core/suite_flags.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"

using namespace leakbound;

namespace {

int
run_fleet(serve::SupervisorConfig config)
{
    serve::Supervisor supervisor(std::move(config));
    if (util::Status started = supervisor.start(); !started.ok())
        util::fatal("cannot start fleet: ", started.to_string());
    std::fflush(stdout);

    const util::Status ran = supervisor.run();
    if (ran.ok()) {
        std::printf("leakboundd: fleet drained cleanly (%llu restarts)\n",
                    static_cast<unsigned long long>(
                        supervisor.counters().restarts_total));
        return 0;
    }
    if (ran.kind() == util::ErrorKind::CrashLoop) {
        // The message IS the JSON incident report — print it whole so
        // an operator (or the smoke test) can parse the exit.
        std::fprintf(stderr, "leakboundd: crash-loop breaker tripped\n%s\n",
                     ran.message().c_str());
        return 1;
    }
    std::fprintf(stderr, "leakboundd: fleet drain failed: %s\n",
                 ran.to_string().c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    util::install_signal_handlers();
    util::fault::configure_from_env();

    util::Cli cli("leakboundd",
                  "resident experiment daemon: serves run/stats/ping "
                  "requests over length-prefixed JSON frames");
    core::SuiteFlagSpec spec;
    spec.instructions = false; // budgets come per request
    spec.json = false;
    spec.csv_dir = false;
    spec.suite_passes = false;
    core::register_suite_flags(cli, spec); // --jobs, --cache-dir
    cli.add_flag("socket", "unix-domain socket path to listen on",
                 "leakboundd.sock");
    cli.add_flag("tcp", "also listen on --tcp-host:--tcp-port", "0");
    cli.add_flag("tcp-host", "TCP listen address (numeric IPv4)",
                 "127.0.0.1");
    cli.add_flag("tcp-port", "TCP listen port (0 = kernel-assigned)",
                 "0");
    cli.add_flag("workers", "concurrent experiment suites", "1");
    cli.add_flag("queue-limit",
                 "requests admitted-but-not-started before new ones "
                 "are rejected overloaded",
                 "8");
    cli.add_flag("max-instructions",
                 "largest per-benchmark instruction budget a request "
                 "may ask for",
                 "64000000");
    cli.add_flag("max-sessions", "concurrent client connections",
                 "10000");
    cli.add_flag("response-cache-mb",
                 "byte budget (MiB) of the rendered-response LRU "
                 "(0 disables it)",
                 "64");
    cli.add_flag("shards",
                 "run a supervised fleet of N shard processes instead "
                 "of a single daemon (0 = single daemon)",
                 "0");
    cli.add_flag("heartbeat-timeout-ms",
                 "fleet: heartbeat silence treated as a wedged shard",
                 "5000");
    cli.add_flag("health-interval-ms",
                 "fleet: spacing of per-shard health probes",
                 "1000");
    cli.add_flag("restart-backoff-ms",
                 "fleet: initial restart backoff (doubles, capped)",
                 "100");
    cli.add_flag("restart-backoff-cap-ms",
                 "fleet: restart backoff ceiling", "5000");
    cli.add_flag("restart-limit",
                 "fleet: deaths tolerated per shard inside "
                 "--restart-window-s before the crash-loop breaker "
                 "trips",
                 "5");
    cli.add_flag("restart-window-s",
                 "fleet: sliding window of the crash-loop breaker",
                 "30");
    cli.add_flag("drain-deadline-ms",
                 "fleet: grace between SIGTERM fan-out and SIGKILL",
                 "10000");
    cli.parse(argc, argv);

    serve::ServerConfig config;
    config.unix_path = cli.get("socket");
    config.listen_tcp = cli.get_bool("tcp");
    config.tcp_host = cli.get("tcp-host");
    config.tcp_port = static_cast<std::uint16_t>(cli.get_u64("tcp-port"));
    config.max_instructions = cli.get_u64("max-instructions");
    config.max_sessions =
        static_cast<unsigned>(cli.get_u64("max-sessions"));
    config.scheduler.workers =
        static_cast<unsigned>(cli.get_u64("workers"));
    config.scheduler.max_queue = cli.get_u64("queue-limit");
    config.scheduler.response_cache_bytes =
        static_cast<std::size_t>(cli.get_u64("response-cache-mb")) << 20;
    config.scheduler.suite_jobs = core::suite_jobs(cli);
    config.scheduler.cache_dir =
        core::resolve_cache_dir(cli.get("cache-dir"));

    const unsigned shards =
        static_cast<unsigned>(cli.get_u64("shards"));
    if (shards > 0) {
        serve::SupervisorConfig fleet;
        fleet.shards = shards;
        fleet.shard = std::move(config);
        fleet.heartbeat_timeout_ms =
            static_cast<int>(cli.get_u64("heartbeat-timeout-ms"));
        fleet.health_interval_ms =
            static_cast<int>(cli.get_u64("health-interval-ms"));
        fleet.restart_backoff_initial_ms =
            static_cast<int>(cli.get_u64("restart-backoff-ms"));
        fleet.restart_backoff_cap_ms =
            static_cast<int>(cli.get_u64("restart-backoff-cap-ms"));
        fleet.restart_limit =
            static_cast<unsigned>(cli.get_u64("restart-limit"));
        fleet.restart_window_s =
            static_cast<int>(cli.get_u64("restart-window-s"));
        fleet.drain_deadline_ms =
            static_cast<int>(cli.get_u64("drain-deadline-ms"));
        if (!fleet.shard.unix_path.empty())
            std::printf("leakboundd: supervising %u shard(s) on unix "
                        "%s.{0..%u} (control on %s)\n",
                        shards, fleet.shard.unix_path.c_str(), shards - 1,
                        fleet.shard.unix_path.c_str());
        if (fleet.shard.listen_tcp)
            std::printf("leakboundd: supervising %u shard(s) on tcp "
                        "%s:%u+1..%u (control on :%u)\n",
                        shards, fleet.shard.tcp_host.c_str(),
                        static_cast<unsigned>(fleet.shard.tcp_port),
                        static_cast<unsigned>(fleet.shard.tcp_port) +
                            shards,
                        static_cast<unsigned>(fleet.shard.tcp_port));
        return run_fleet(std::move(fleet));
    }

    serve::Server server(std::move(config));
    if (util::Status bound = server.start(); !bound.ok())
        util::fatal("cannot start: ", bound.to_string());

    if (!cli.get("socket").empty())
        std::printf("leakboundd: listening on unix %s\n",
                    cli.get("socket").c_str());
    if (cli.get_bool("tcp"))
        std::printf("leakboundd: listening on tcp %s:%u\n",
                    cli.get("tcp-host").c_str(),
                    static_cast<unsigned>(server.tcp_port()));
    std::fflush(stdout);

    if (util::Status served = server.serve(); !served.ok())
        util::fatal("serve failed: ", served.to_string());

    const serve::StatsSnapshot stats = server.stats();
    std::printf("leakboundd: drained after %.1fs — %llu served, "
                "%llu dedup hits, %llu response-LRU hits, "
                "%llu cache hits, %llu rejected\n",
                stats.uptime_seconds,
                static_cast<unsigned long long>(stats.requests_served),
                static_cast<unsigned long long>(stats.dedup_hits),
                static_cast<unsigned long long>(stats.response_lru_hits),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(
                    stats.rejected_overloaded + stats.rejected_deadline +
                    stats.rejected_shutting_down));
    return 0;
}
