/**
 * @file
 * Client side of the leakboundd protocol: connect, build request
 * frames, call the daemon, and drive load-generation runs.
 *
 * Every helper returns typed util::Status failures — a dead daemon, a
 * truncated frame or a server-side rejection (Overloaded,
 * ShuttingDown) all surface as the matching ErrorKind, rebuilt from
 * the error frame's "kind" member, so callers branch on taxonomy
 * instead of string-matching messages.
 *
 * The load generator is closed-loop: each client thread sends its
 * next batch only once the previous batch is answered, so the load
 * it offers never outruns what the daemon serves.
 */

#ifndef LEAKBOUND_SERVE_CLIENT_HPP
#define LEAKBOUND_SERVE_CLIENT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

namespace leakbound::serve {

/** Where the daemon lives (unix path wins when both are set). */
struct Endpoint
{
    std::string unix_path;
    std::string tcp_host = "127.0.0.1";
    std::uint16_t tcp_port = 0;
};

/** Connect to @p endpoint (one fresh connection per call). */
util::Expected<util::net::Socket> connect_endpoint(const Endpoint &endpoint);

/** The client-facing shape of a "run" request. */
struct RunRequest
{
    std::vector<std::string> benchmarks;
    std::uint64_t instructions = 200'000;
    std::uint64_t nl_lead_time = 0;
    bool collect_l2 = false;
    bool standard_edges = true;
    std::vector<std::uint64_t> extra_edges;
    bool want_payload = false;
    /** Cores sharing the L2 (1 = the classic single-core simulator;
     *  omitted from the wire request at the default). */
    std::uint32_t core_count = 1;
    /** Per-core benchmark names (must match core_count when set);
     *  empty runs each requested benchmark on every core. */
    std::vector<std::string> workload_mix;
};

/** Render @p request as the wire JSON. */
std::string build_run_request(const RunRequest &request);

/** Render the one-member utility requests. */
std::string build_stats_request();
std::string build_ping_request();

/**
 * One request/response round trip on @p socket: send @p request_json
 * as a frame, receive and parse the response.  A response frame whose
 * "status" is "error" is converted back into its typed Status; the
 * parsed document is returned only for "ok" responses.  When
 * @p raw_frame is non-null it receives the exact response bytes (the
 * load generator hashes these to verify dedup byte-identity).
 */
util::Expected<util::JsonValue>
call(const util::net::Socket &socket, const std::string &request_json,
     std::string *raw_frame = nullptr);

/** connect_endpoint + call on a throwaway connection. */
util::Expected<util::JsonValue>
call_endpoint(const Endpoint &endpoint, const std::string &request_json,
              std::string *raw_frame = nullptr);

/** What a load-generation run observed (the client prints this). */
struct LoadReport
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t shutting_down = 0;
    std::uint64_t other_errors = 0;
    /** Distinct request_fingerprint values seen across ok responses. */
    std::uint64_t distinct_fingerprints = 0;
    /** Distinct full response bodies seen across ok responses (dedup
     *  byte-identity check: identical requests must make this 1). */
    std::uint64_t distinct_responses = 0;
    /** Idle connections actually held open during the run. */
    std::uint64_t idle_connections_held = 0;
    /** Per answered request: from just before its batch was sent,
     *  any connect included, to its reply. */
    util::LatencyRecorder latency_ms;
    double wall_seconds = 0.0;
};

/** How a load-generation run behaves (run_load). */
struct LoadOptions
{
    /** Total run requests to fire. */
    std::uint64_t total = 1;
    /** Client worker threads. */
    unsigned concurrency = 1;
    /**
     * Extra connections opened before the load loop starts and held
     * open — sending nothing — until every request is answered.  This
     * is the 10k-connection story: idle sockets must cost the daemon
     * no threads and no latency.
     */
    unsigned idle_connections = 0;
    /**
     * Keep one connection per worker thread for its whole loop
     * instead of a fresh connection per request.
     */
    bool persistent = false;
    /**
     * Requests a persistent worker sends in one write before reading
     * their replies (1 = strict request/response lockstep).  Depth > 1
     * exercises the daemon's ordered per-connection reply queue and
     * amortizes syscalls on both sides.  Ignored without persistent.
     */
    unsigned pipeline = 1;
};

/**
 * Fire options.total identical copies of @p request at @p endpoint
 * from options.concurrency client threads and fold what came back
 * into a LoadReport.  Identical requests are exactly what exercises
 * the daemon's dedup and response-LRU paths; the report's
 * distinct_responses says whether the dedup group really was
 * byte-identical.
 */
LoadReport run_load(const Endpoint &endpoint, const RunRequest &request,
                    const LoadOptions &options);

} // namespace leakbound::serve

#endif // LEAKBOUND_SERVE_CLIENT_HPP
