/**
 * @file
 * `leakboundd` — the resident experiment daemon.
 *
 * Binds a Unix-domain socket (and optionally a loopback TCP port),
 * then serves length-prefixed JSON experiment requests until SIGINT /
 * SIGTERM, at which point it drains: in-flight experiments finish and
 * answer their clients, queued ones fail with shutting_down, and the
 * process exits 0.  --workers N runs N experiment workers and N event
 * loops over the listeners in this one process.  Restarting a crashed
 * daemon is a process manager's job; ping and health requests are its
 * probes.  See README "Running as a service".
 */

#include <cstdio>

#include "core/artifact_cache.hpp"
#include "core/suite_flags.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"

using namespace leakbound;

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
    spec.suite_passes = false;
    core::register_suite_flags(cli, spec); // --jobs, --cache-dir
    cli.add_flag("socket", "unix-domain socket path to listen on",
                 "leakboundd.sock");
    cli.add_flag("tcp", "also listen on --tcp-host:--tcp-port", "0");
    cli.add_flag("tcp-host", "TCP listen address (numeric IPv4)",
                 "127.0.0.1");
    cli.add_flag("tcp-port", "TCP listen port (0 = kernel-assigned)",
                 "0");
    cli.add_flag("workers",
                 "concurrent experiment suites, and event loops", "1");
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
                    stats.rejected_overloaded +
                    stats.rejected_shutting_down));
    return 0;
}
