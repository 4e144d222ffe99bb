/**
 * @file
 * Implementation of the leakboundd client helpers.
 */

#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "core/experiment_request.hpp"
#include "util/fingerprint.hpp"
#include "util/random.hpp"

namespace leakbound::serve {

util::Expected<util::net::Socket>
connect_endpoint(const Endpoint &endpoint)
{
    if (!endpoint.unix_path.empty())
        return util::net::connect_unix(endpoint.unix_path);
    if (endpoint.tcp_port != 0)
        return util::net::connect_tcp(endpoint.tcp_host,
                                      endpoint.tcp_port);
    return util::Status(util::ErrorKind::InvalidArgument,
                        "endpoint needs a socket path or a TCP port");
}

Endpoint
shard_endpoint(const Endpoint &base, unsigned shard)
{
    Endpoint endpoint = base;
    if (!endpoint.unix_path.empty()) {
        endpoint.unix_path += '.';
        endpoint.unix_path += std::to_string(shard);
        return endpoint;
    }
    endpoint.tcp_port =
        static_cast<std::uint16_t>(base.tcp_port + 1 + shard);
    return endpoint;
}

std::vector<Endpoint>
fleet_endpoints(const Endpoint &base, unsigned shards)
{
    std::vector<Endpoint> fleet;
    fleet.reserve(shards);
    for (unsigned shard = 0; shard < shards; ++shard)
        fleet.push_back(shard_endpoint(base, shard));
    return fleet;
}

std::string
build_run_request(const RunRequest &request)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("type").value("run");
    w.key("benchmarks").value(request.benchmarks);
    w.key("instructions").value(request.instructions);
    if (request.nl_lead_time != 0)
        w.key("nl_lead_time").value(request.nl_lead_time);
    if (request.collect_l2)
        w.key("collect_l2").value(true);
    if (!request.standard_edges)
        w.key("standard_edges").value(false);
    if (!request.extra_edges.empty()) {
        w.key("extra_edges").begin_array();
        for (const std::uint64_t edge : request.extra_edges)
            w.value(edge);
        w.end_array();
    }
    if (request.want_payload)
        w.key("payload").value(true);
    if (request.deadline_ms != 0)
        w.key("deadline_ms").value(request.deadline_ms);
    if (request.core_count != 1)
        w.key("core_count").value(
            static_cast<std::uint64_t>(request.core_count));
    if (!request.workload_mix.empty())
        w.key("workload_mix").value(request.workload_mix);
    w.end_object();
    return w.str();
}

std::string
build_stats_request()
{
    util::JsonWriter w;
    w.begin_object();
    w.key("type").value("stats");
    w.end_object();
    return w.str();
}

std::string
build_ping_request()
{
    util::JsonWriter w;
    w.begin_object();
    w.key("type").value("ping");
    w.end_object();
    return w.str();
}

std::string
build_health_request()
{
    util::JsonWriter w;
    w.begin_object();
    w.key("type").value("health");
    w.end_object();
    return w.str();
}

util::Expected<std::uint64_t>
fingerprint_run_request(const RunRequest &request)
{
    // Round-trip through the wire codec rather than fingerprinting the
    // RunRequest directly: the decoder normalizes (standard-edge
    // absorption, defaults), and routing must key on the normalized
    // form the server fingerprints, not on what the client typed.
    auto parsed = util::json_parse(build_run_request(request));
    if (!parsed)
        return parsed.status();
    auto decoded = core::decode_experiment_request(
        parsed.value(),
        std::max(request.instructions,
                 core::kDefaultMaxRequestInstructions));
    if (!decoded)
        return decoded.status();
    return core::fingerprint_request(decoded.value());
}

util::Expected<util::JsonValue>
call(const util::net::Socket &socket, const std::string &request_json,
     std::size_t max_frame, std::string *raw_frame)
{
    if (util::Status sent = send_frame(socket, request_json, max_frame);
        !sent.ok())
        return sent;
    auto frame = recv_frame(socket, max_frame);
    if (!frame)
        return frame.status();
    if (raw_frame != nullptr)
        *raw_frame = frame.value();
    auto parsed = util::json_parse(frame.value());
    if (!parsed)
        return parsed.status();
    util::JsonValue response = parsed.take();
    if (!response.is_object()) {
        return util::Status(util::ErrorKind::CorruptData,
                            "response is not a JSON object");
    }
    const util::JsonValue *status = response.find("status");
    if (status == nullptr || !status->is_string()) {
        return util::Status(util::ErrorKind::CorruptData,
                            "response lacks a string \"status\"");
    }
    if (status->string_value() == "ok")
        return response;

    // An error frame: rebuild the typed Status the server serialized.
    const util::JsonValue *kind = response.find("kind");
    const util::JsonValue *message = response.find("message");
    util::ErrorKind decoded = util::ErrorKind::Internal;
    if (kind != nullptr && kind->is_string()) {
        if (auto known =
                util::error_kind_from_name(kind->string_value());
            known && *known != util::ErrorKind::None)
            decoded = *known;
    }
    return util::Status(decoded,
                        message != nullptr && message->is_string()
                            ? message->string_value()
                            : "server-side error");
}

util::Expected<util::JsonValue>
call_endpoint(const Endpoint &endpoint, const std::string &request_json,
              std::size_t max_frame, std::string *raw_frame)
{
    auto socket = connect_endpoint(endpoint);
    if (!socket)
        return socket.status();
    return call(socket.value(), request_json, max_frame, raw_frame);
}

bool
failover_worthy(const util::Status &status)
{
    switch (status.kind()) {
      case util::ErrorKind::ConnectionClosed: // refused / peer vanished
      case util::ErrorKind::IoError:          // connect/read/write failed
      case util::ErrorKind::CorruptData:      // truncated mid-frame
      case util::ErrorKind::ShuttingDown:     // orderly shard drain
      case util::ErrorKind::FaultInjected:    // chaos seam on this path
        return true;
      default:
        return false;
    }
}

util::Expected<util::JsonValue>
call_fleet(const std::vector<Endpoint> &fleet, const RunRequest &request,
           const FailoverPolicy &policy, std::size_t max_frame,
           std::string *raw_frame, std::uint64_t *failovers)
{
    if (fleet.empty()) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "call_fleet needs at least one endpoint");
    }
    auto fingerprint = fingerprint_run_request(request);
    if (!fingerprint)
        return fingerprint.status();
    const unsigned home = core::route_shard(
        fingerprint.value(), static_cast<unsigned>(fleet.size()));
    const std::string request_json = build_run_request(request);

    const unsigned attempts =
        policy.max_attempts != 0
            ? policy.max_attempts
            : 2 * static_cast<unsigned>(fleet.size());
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(std::max(policy.budget_ms, 0));
    // Jitter keyed by the request: two clients retrying the same dead
    // shard desynchronize, but a rerun of one client is reproducible.
    util::Rng jitter(policy.jitter_seed ^ fingerprint.value());
    std::uint64_t backoff =
        static_cast<std::uint64_t>(std::max(policy.backoff_initial_ms, 1));
    const std::uint64_t cap =
        static_cast<std::uint64_t>(std::max(policy.backoff_cap_ms, 1));

    util::Status last(util::ErrorKind::IoError, "no attempt was made");
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        const Endpoint &endpoint = fleet[(home + attempt) % fleet.size()];
        auto response =
            call_endpoint(endpoint, request_json, max_frame, raw_frame);
        if (response)
            return response;
        last = response.status();
        if (!failover_worthy(last))
            return last;
        if (attempt + 1 >= attempts ||
            std::chrono::steady_clock::now() >= deadline)
            break;
        if (failovers != nullptr)
            ++*failovers;
        const std::uint64_t sleep_ms =
            backoff + jitter.next_below(backoff / 2 + 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        backoff = std::min(backoff * 2, cap);
    }
    return last;
}

LoadReport
run_load(const Endpoint &endpoint, const RunRequest &request,
         const LoadOptions &options)
{
    const std::string request_json = build_run_request(request);
    LoadReport report;
    std::mutex mutex;
    std::set<std::string> fingerprints;
    std::set<std::uint64_t> response_digests;
    std::uint64_t next = 0;

    /** What one distinct response body means, parsed exactly once. */
    struct BodyClass
    {
        bool ok = false;
        util::ErrorKind kind = util::ErrorKind::Internal;
    };
    std::map<std::uint64_t, BodyClass> body_classes;
    // Classify a raw response frame, memoized by digest: the warm load
    // is overwhelmingly byte-identical bodies, so the JSON parse cost
    // is paid once per distinct body, not once per response.  Call
    // with `mutex` held.
    auto classify = [&](std::uint64_t digest,
                        const std::string &raw) -> const BodyClass & {
        auto it = body_classes.find(digest);
        if (it != body_classes.end())
            return it->second;
        BodyClass parsed;
        if (auto body = util::json_parse(raw);
            body && body.value().is_object()) {
            const util::JsonValue *status = body.value().find("status");
            parsed.ok = status != nullptr && status->is_string() &&
                        status->string_value() == "ok";
            if (parsed.ok) {
                if (const util::JsonValue *fp =
                        body.value().find("request_fingerprint");
                    fp != nullptr && fp->is_string())
                    fingerprints.insert(fp->string_value());
            } else if (const util::JsonValue *kind =
                           body.value().find("kind");
                       kind != nullptr && kind->is_string()) {
                if (auto known = util::error_kind_from_name(
                        kind->string_value());
                    known && *known != util::ErrorKind::None)
                    parsed.kind = *known;
            }
        }
        return body_classes.emplace(digest, parsed).first->second;
    };

    // Held-open idle sockets: opened before the first request, closed
    // after the last response.  Their only job is to exist — the
    // daemon must serve the load loop at full speed while carrying
    // them.
    std::vector<util::net::Socket> idle;
    idle.reserve(options.idle_connections);
    for (unsigned i = 0; i < options.idle_connections; ++i) {
        // Fleet mode spreads the idle herd round-robin across shards.
        auto socket = connect_endpoint(
            options.fleet.empty()
                ? endpoint
                : options.fleet[i % options.fleet.size()]);
        if (!socket)
            break; // fd limit or listener backlog: hold what we got
        idle.push_back(socket.take());
    }
    report.idle_connections_held = idle.size();

    // Fleet mode: requests start at the fingerprint's home shard, so
    // the dedup map and response LRU that already know this request
    // are the ones that see it.
    const bool fleet_mode = !options.fleet.empty();
    const unsigned fleet_size =
        fleet_mode ? static_cast<unsigned>(options.fleet.size()) : 1;
    unsigned home = 0;
    if (fleet_mode) {
        if (auto fingerprint = fingerprint_run_request(request))
            home = core::route_shard(fingerprint.value(), fleet_size);
    }

    const auto begun = std::chrono::steady_clock::now();

    // Batched pipelining: claim up to `pipeline` requests, push them
    // down one connection as a single write, then read the responses
    // back in order.  Exercises the daemon's per-connection reply
    // queue and amortizes syscalls on both sides of the wire.  In
    // fleet mode the connection pins to one shard (home first) and
    // rotates to the next shard only when it fails or drains — the
    // unanswered tail of the batch is re-sent there, which is safe
    // because identical run requests are idempotent by construction.
    auto pipelined_worker = [&] {
        // One frame, prebuilt: 4-byte LE length prefix + payload.
        std::string framed;
        const std::uint32_t size =
            static_cast<std::uint32_t>(request_json.size());
        framed.push_back(static_cast<char>(size & 0xff));
        framed.push_back(static_cast<char>((size >> 8) & 0xff));
        framed.push_back(static_cast<char>((size >> 16) & 0xff));
        framed.push_back(static_cast<char>((size >> 24) & 0xff));
        framed.append(request_json);

        unsigned rotation = 0; ///< offset from the home shard
        util::net::Socket connection;
        for (;;) {
            std::uint64_t batch;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (next >= options.total)
                    return;
                batch = std::min<std::uint64_t>(options.pipeline,
                                                options.total - next);
                next += batch;
            }
            std::uint64_t remaining = batch;
            unsigned tries = fleet_mode ? 2 * fleet_size : 1;
            while (remaining > 0) {
                bool broke = false; ///< this connection is done for
                if (!connection.valid()) {
                    const Endpoint &target =
                        fleet_mode ? options.fleet[(home + rotation) %
                                                   fleet_size]
                                   : endpoint;
                    auto fresh = connect_endpoint(target);
                    if (!fresh)
                        broke = true;
                    else
                        connection = fresh.take();
                }
                auto sent_at = std::chrono::steady_clock::now();
                if (!broke) {
                    std::string wire;
                    wire.reserve(framed.size() * remaining);
                    for (std::uint64_t i = 0; i < remaining; ++i)
                        wire.append(framed);
                    sent_at = std::chrono::steady_clock::now();
                    if (util::Status pushed = util::net::send_all(
                            connection, wire.data(), wire.size());
                        !pushed.ok()) {
                        connection.close();
                        broke = true;
                    }
                }
                while (!broke && remaining > 0) {
                    auto frame =
                        recv_frame(connection, options.max_frame);
                    const double ms =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - sent_at)
                            .count();
                    if (!frame) {
                        // The unanswered tail is gone with the stream.
                        connection.close();
                        broke = true;
                        break;
                    }
                    const std::uint64_t digest = util::fnv1a(
                        frame.value().data(), frame.value().size());
                    std::lock_guard<std::mutex> lock(mutex);
                    const BodyClass &body =
                        classify(digest, frame.value());
                    if (fleet_mode && !body.ok &&
                        body.kind == util::ErrorKind::ShuttingDown) {
                        // Orderly shard drain: this request and the
                        // rest of the batch belong on the next shard.
                        connection.close();
                        broke = true;
                        break;
                    }
                    ++report.sent;
                    report.latency_ms.add(ms);
                    --remaining;
                    if (body.ok) {
                        ++report.ok;
                        response_digests.insert(digest);
                    } else if (body.kind ==
                               util::ErrorKind::Overloaded) {
                        ++report.overloaded;
                    } else if (body.kind ==
                               util::ErrorKind::ShuttingDown) {
                        ++report.shutting_down;
                    } else {
                        ++report.other_errors;
                    }
                }
                if (!broke)
                    break; // batch fully answered
                if (--tries == 0) {
                    std::lock_guard<std::mutex> lock(mutex);
                    report.sent += remaining;
                    report.other_errors += remaining;
                    break;
                }
                if (fleet_mode) {
                    ++rotation;
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        ++report.failovers;
                    }
                    // Breathe between reroutes so a restart-storm
                    // window (every shard briefly down) is survived
                    // rather than burned through in microseconds.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(std::max(
                            options.failover.backoff_initial_ms, 1)));
                }
            }
        }
    };

    auto worker = [&] {
        util::net::Socket persistent;
        for (;;) {
            std::uint64_t k;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (next >= options.total)
                    return;
                k = next++;
            }
            if (options.open_loop_rps > 0.0) {
                // Open loop: request k is due at begun + k/rate, no
                // matter how the server is doing.
                const auto due =
                    begun + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(k) /
                                    options.open_loop_rps));
                std::this_thread::sleep_until(due);
            }
            const auto sent_at = std::chrono::steady_clock::now();
            std::string raw;
            std::uint64_t reroutes = 0;
            util::Expected<util::JsonValue> response =
                util::Status(util::ErrorKind::IoError, "not sent");
            if (fleet_mode) {
                // Fresh connection per request, routed to the home
                // shard with failover (persistent connections in
                // fleet mode are the pipelined worker's job).
                response = call_fleet(options.fleet, request,
                                      options.failover,
                                      options.max_frame, &raw,
                                      &reroutes);
            } else if (options.persistent) {
                if (!persistent.valid()) {
                    if (auto fresh = connect_endpoint(endpoint))
                        persistent = fresh.take();
                }
                if (persistent.valid()) {
                    response = call(persistent, request_json,
                                    options.max_frame, &raw);
                    if (!response)
                        persistent.close(); // reconnect next round
                } else {
                    response = util::Status(
                        util::ErrorKind::IoError,
                        "cannot connect to the daemon");
                }
            } else {
                response = call_endpoint(endpoint, request_json,
                                         options.max_frame, &raw);
            }
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - sent_at)
                    .count();

            std::lock_guard<std::mutex> lock(mutex);
            ++report.sent;
            report.failovers += reroutes;
            report.latency_ms.add(ms);
            if (!response) {
                switch (response.status().kind()) {
                  case util::ErrorKind::Overloaded:
                    ++report.overloaded;
                    break;
                  case util::ErrorKind::ShuttingDown:
                    ++report.shutting_down;
                    break;
                  default:
                    ++report.other_errors;
                }
                continue;
            }
            ++report.ok;
            const util::JsonValue &body = response.value();
            if (const util::JsonValue *fp =
                    body.find("request_fingerprint");
                fp != nullptr && fp->is_string())
                fingerprints.insert(fp->string_value());
            response_digests.insert(
                util::fnv1a(raw.data(), raw.size()));
        }
    };

    std::vector<std::thread> threads;
    const unsigned workers =
        options.concurrency == 0 ? 1 : options.concurrency;
    const bool pipelined = options.persistent &&
                           options.pipeline > 1 &&
                           options.open_loop_rps <= 0.0;
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        if (pipelined)
            threads.emplace_back(pipelined_worker);
        else
            threads.emplace_back(worker);
    }
    for (std::thread &thread : threads)
        thread.join();

    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begun)
            .count();
    report.distinct_fingerprints = fingerprints.size();
    report.distinct_responses = response_digests.size();
    return report;
}

LoadReport
run_load(const Endpoint &endpoint, const RunRequest &request,
         std::uint64_t total, unsigned concurrency,
         std::size_t max_frame)
{
    LoadOptions options;
    options.total = total;
    options.concurrency = concurrency;
    options.max_frame = max_frame;
    return run_load(endpoint, request, options);
}

} // namespace leakbound::serve
