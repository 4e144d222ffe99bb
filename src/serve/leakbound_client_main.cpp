/**
 * @file
 * `leakbound-client` — command-line client and load generator for
 * leakboundd.
 *
 * Single-shot mode sends one run/stats/ping request and prints the
 * response JSON; `--load N --concurrency K` fires N identical run
 * requests from K threads and prints what came back (ok / overloaded /
 * dedup byte-identity / latency percentiles).  Exit codes: 0 success,
 * 1 the daemon answered with an error or could not be reached, 2
 * usage errors.
 */

#include <cstdio>

#include "core/suite_flags.hpp"
#include "serve/client.hpp"
#include "util/binary_io.hpp"
#include "util/cli.hpp"
#include "util/interrupt.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;

namespace {

serve::Endpoint
endpoint_from_flags(const util::Cli &cli)
{
    serve::Endpoint endpoint;
    endpoint.unix_path = cli.get("socket");
    endpoint.tcp_host = cli.get("tcp-host");
    endpoint.tcp_port =
        static_cast<std::uint16_t>(cli.get_u64("tcp-port"));
    if (endpoint.tcp_port != 0)
        endpoint.unix_path.clear(); // an explicit port wins
    return endpoint;
}

/** Print one ok response, optionally mirroring it to --json PATH. */
int
emit_response(const std::string &raw, const util::Cli &cli)
{
    std::printf("%s\n", raw.c_str());
    const std::string path = cli.get("json");
    if (!path.empty()) {
        if (util::Status wrote = util::write_file_atomic(path, raw + "\n");
            !wrote.ok())
            util::warn("cannot mirror response: ", wrote.to_string());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::install_signal_handlers();

    util::Cli cli("leakbound-client",
                  "client and load generator for leakboundd");
    core::SuiteFlagSpec spec;
    spec.jobs = false;       // compute happens server-side
    spec.cache_dir = false;  // caching is server-owned
    spec.suite_passes = false;
    spec.default_instructions = 200'000;
    core::register_suite_flags(cli, spec); // --instructions, --json
    cli.add_flag("socket", "unix-domain socket of the daemon",
                 "leakboundd.sock");
    cli.add_flag("tcp-host", "TCP address of the daemon", "127.0.0.1");
    cli.add_flag("tcp-port",
                 "TCP port of the daemon (nonzero overrides --socket)",
                 "0");
    cli.add_flag("benchmarks",
                 "comma-separated suite benchmarks to simulate",
                 "gzip");
    cli.add_flag("nl-lead-time",
                 "next-line timeliness lead, cycles", "0");
    cli.add_flag("collect-l2", "also collect the unified L2", "0");
    cli.add_flag("core-count",
                 "cores sharing the L2 (1 = single-core simulator)",
                 "1");
    cli.add_flag("workload-mix",
                 "comma-separated per-core benchmarks for multicore "
                 "runs (must match --core-count; empty = every core "
                 "runs the requested benchmark)",
                 "");
    cli.add_flag("payload",
                 "embed each result's full serialized payload (hex)",
                 "0");
    cli.add_flag("ping", "just ping the daemon", "0");
    cli.add_flag("stats", "fetch the daemon's /stats counters", "0");
    cli.add_flag("load",
                 "fire N identical run requests instead of one", "0");
    cli.add_flag("concurrency", "client threads for --load", "4");
    cli.add_flag("connections",
                 "hold N extra connections open but idle for the whole "
                 "--load run (the 10k-connection scenario)",
                 "0");
    cli.add_flag("persistent",
                 "reuse one connection per load thread instead of one "
                 "per request",
                 "0");
    cli.add_flag("pipeline",
                 "requests each persistent load thread keeps in "
                 "flight on its connection",
                 "1");
    cli.parse(argc, argv);

    const serve::Endpoint endpoint = endpoint_from_flags(cli);

    if (cli.get_bool("ping") || cli.get_bool("stats")) {
        const std::string request = cli.get_bool("ping")
                                        ? serve::build_ping_request()
                                        : serve::build_stats_request();
        std::string raw;
        auto response = serve::call_endpoint(endpoint, request, &raw);
        if (!response) {
            std::fprintf(stderr, "leakbound-client: %s\n",
                         response.status().to_string().c_str());
            return 1;
        }
        return emit_response(raw, cli);
    }

    serve::RunRequest request;
    request.benchmarks = util::split(cli.get("benchmarks"), ',');
    for (const std::string &name : request.benchmarks)
        if (!workload::is_benchmark(name))
            util::fatal("unknown benchmark \"", name, "\"");
    request.instructions = cli.get_u64("instructions");
    request.nl_lead_time = cli.get_u64("nl-lead-time");
    request.collect_l2 = cli.get_bool("collect-l2");
    request.want_payload = cli.get_bool("payload");
    request.core_count =
        static_cast<std::uint32_t>(cli.get_u64("core-count"));
    if (const std::string mix = cli.get("workload-mix"); !mix.empty()) {
        request.workload_mix = util::split(mix, ',');
        for (const std::string &name : request.workload_mix)
            if (!workload::is_benchmark(name))
                util::fatal("unknown benchmark \"", name,
                            "\" in --workload-mix");
        if (request.workload_mix.size() != request.core_count)
            util::fatal("--workload-mix has ",
                        request.workload_mix.size(),
                        " entries but --core-count is ",
                        request.core_count);
    }

    const std::uint64_t load = cli.get_u64("load");
    if (load == 0) {
        std::string raw;
        auto response = serve::call_endpoint(
            endpoint, serve::build_run_request(request), &raw);
        if (!response) {
            std::fprintf(stderr, "leakbound-client: %s\n",
                         response.status().to_string().c_str());
            return 1;
        }
        return emit_response(raw, cli);
    }

    serve::LoadOptions options;
    options.total = load;
    options.concurrency =
        static_cast<unsigned>(cli.get_u64("concurrency"));
    options.persistent = cli.get_bool("persistent");
    options.pipeline = static_cast<unsigned>(cli.get_u64("pipeline"));
    options.idle_connections =
        static_cast<unsigned>(cli.get_u64("connections"));
    const serve::LoadReport report =
        serve::run_load(endpoint, request, options);
    std::printf(
        "load: %llu sent, %llu ok, %llu overloaded, %llu "
        "shutting_down, %llu errors in %.4fs "
        "(%llu idle connection(s) held)\n"
        "dedup: %llu distinct fingerprint(s), %llu distinct "
        "response body(ies)\n"
        "latency: p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
        static_cast<unsigned long long>(report.sent),
        static_cast<unsigned long long>(report.ok),
        static_cast<unsigned long long>(report.overloaded),
        static_cast<unsigned long long>(report.shutting_down),
        static_cast<unsigned long long>(report.other_errors),
        report.wall_seconds,
        static_cast<unsigned long long>(report.idle_connections_held),
        static_cast<unsigned long long>(report.distinct_fingerprints),
        static_cast<unsigned long long>(report.distinct_responses),
        report.latency_ms.p50(), report.latency_ms.p99(),
        report.latency_ms.max());
    return report.ok == report.sent ? 0 : 1;
}
