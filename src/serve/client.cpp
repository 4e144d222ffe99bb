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

#include "util/fingerprint.hpp"

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

util::Expected<util::JsonValue>
call(const util::net::Socket &socket, const std::string &request_json,
     std::string *raw_frame)
{
    if (util::Status sent = send_frame(socket, request_json); !sent.ok())
        return sent;
    auto frame = recv_frame(socket);
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
              std::string *raw_frame)
{
    auto socket = connect_endpoint(endpoint);
    if (!socket)
        return socket.status();
    return call(socket.value(), request_json, raw_frame);
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
        auto socket = connect_endpoint(endpoint);
        if (!socket)
            break; // fd limit or listener backlog: hold what we got
        idle.push_back(socket.take());
    }
    report.idle_connections_held = idle.size();

    // Every request of a batch is the same frame, so one prebuilt
    // batch serves every thread; a short last batch sends a prefix.
    const std::uint64_t batch =
        options.persistent ? std::max(options.pipeline, 1u) : 1;
    const std::size_t frame_bytes = kFrameHeaderBytes + request_json.size();
    std::string wire;
    wire.reserve(frame_bytes * batch);
    for (std::uint64_t i = 0; i < batch; ++i)
        append_frame(wire, request_json);

    const auto begun = std::chrono::steady_clock::now();

    // One worker body for every load shape: claim a batch, connect if
    // no connection is held, push the batch down in one write, then
    // read the replies back in order.  A broken connection fails the
    // unanswered tail of its batch and is reopened for the next one;
    // without `persistent` every batch gets a fresh connection.
    auto worker = [&] {
        util::net::Socket connection;
        for (;;) {
            std::uint64_t remaining;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (next >= options.total)
                    return;
                remaining =
                    std::min<std::uint64_t>(batch, options.total - next);
                next += remaining;
            }
            const auto sent_at = std::chrono::steady_clock::now();
            bool broke = false;
            if (!connection.valid()) {
                if (auto fresh = connect_endpoint(endpoint))
                    connection = fresh.take();
                else
                    broke = true;
            }
            if (!broke) {
                if (util::Status pushed = util::net::send_all(
                        connection, wire.data(), frame_bytes * remaining);
                    !pushed.ok())
                    broke = true;
            }
            while (!broke && remaining > 0) {
                auto frame = recv_frame(connection);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - sent_at)
                        .count();
                if (!frame) {
                    // The unanswered tail is gone with the stream.
                    broke = true;
                    break;
                }
                const std::uint64_t digest = util::fnv1a(
                    frame.value().data(), frame.value().size());
                std::lock_guard<std::mutex> lock(mutex);
                const BodyClass &body = classify(digest, frame.value());
                ++report.sent;
                report.latency_ms.add(ms);
                --remaining;
                if (body.ok) {
                    ++report.ok;
                    response_digests.insert(digest);
                } else if (body.kind == util::ErrorKind::Overloaded) {
                    ++report.overloaded;
                } else if (body.kind == util::ErrorKind::ShuttingDown) {
                    ++report.shutting_down;
                } else {
                    ++report.other_errors;
                }
            }
            if (broke) {
                std::lock_guard<std::mutex> lock(mutex);
                report.sent += remaining;
                report.other_errors += remaining;
            }
            if (broke || !options.persistent)
                connection.close();
        }
    };

    std::vector<std::thread> threads;
    const unsigned workers =
        options.concurrency == 0 ? 1 : options.concurrency;
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads.emplace_back(worker);
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

} // namespace leakbound::serve
