/**
 * @file
 * Implementation of the leakboundd wire protocol: frame codec, hex
 * payload encoding, and the response renderers.
 */

#include "serve/protocol.hpp"

#include "core/artifact_cache.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"

namespace leakbound::serve {

void
append_frame(std::string &out, const std::string &payload)
{
    const std::size_t size = payload.size();
    for (std::size_t shift = 0; shift < 8 * kFrameHeaderBytes; shift += 8)
        out.push_back(static_cast<char>((size >> shift) & 0xff));
    out.append(payload);
}

util::Expected<std::size_t>
read_frame_header(const char *header)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(header);
    std::size_t size = 0;
    for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
        size |= static_cast<std::size_t>(bytes[i]) << (8 * i);
    if (size > kDefaultMaxFrameBytes) {
        return util::Status(util::ErrorKind::CorruptData,
                            "frame length prefix of " +
                                std::to_string(size) +
                                " bytes exceeds the " +
                                std::to_string(kDefaultMaxFrameBytes) +
                                " byte cap");
    }
    return size;
}

util::Status
send_frame(const util::net::Socket &socket, const std::string &payload)
{
    if (payload.size() > kDefaultMaxFrameBytes) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "frame payload of " +
                                std::to_string(payload.size()) +
                                " bytes exceeds the " +
                                std::to_string(kDefaultMaxFrameBytes) +
                                " byte cap");
    }
    // One buffer, one send path: splitting header and payload into
    // two writes invites a Nagle/delayed-ACK stall between them.
    std::string frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    append_frame(frame, payload);
    return util::net::send_all(socket, frame.data(), frame.size());
}

util::Expected<std::string>
recv_frame(const util::net::Socket &socket)
{
    std::string header;
    if (util::Status got =
            util::net::recv_exact(socket, kFrameHeaderBytes, header);
        !got.ok())
        return got;
    const util::Expected<std::size_t> size =
        read_frame_header(header.data());
    if (!size)
        return size.status();
    std::string payload;
    if (size.value() == 0)
        return payload;
    if (util::Status got =
            util::net::recv_exact(socket, size.value(), payload);
        !got.ok()) {
        // recv_exact reports clean EOF before the first byte as
        // ConnectionClosed, but after a header a vanishing peer is a
        // truncated frame, not a clean close.
        if (got.kind() == util::ErrorKind::ConnectionClosed) {
            return util::Status(util::ErrorKind::CorruptData,
                                "peer closed mid-frame: announced " +
                                    std::to_string(size.value()) +
                                    " bytes, sent none");
        }
        return got;
    }
    return payload;
}

std::string
hex_encode(const std::string &bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (const unsigned char byte : bytes) {
        out.push_back(kDigits[byte >> 4]);
        out.push_back(kDigits[byte & 0xf]);
    }
    return out;
}

namespace {

int
hex_nibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

util::Expected<std::string>
hex_decode(const std::string &hex)
{
    if (hex.size() % 2 != 0) {
        return util::Status(util::ErrorKind::CorruptData,
                            "odd-length hex string (" +
                                std::to_string(hex.size()) + " chars)");
    }
    std::string out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = hex_nibble(hex[i]);
        const int lo = hex_nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) {
            return util::Status(util::ErrorKind::CorruptData,
                                "non-hex character at offset " +
                                    std::to_string(i));
        }
        out.push_back(static_cast<char>((hi << 4) | lo));
    }
    return out;
}

std::string
render_error(const util::Status &status)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("error");
    w.key("kind").value(util::error_kind_name(status.kind()));
    w.key("message").value(status.message());
    w.end_object();
    return w.str();
}

std::string
render_pong()
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("pong");
    w.end_object();
    return w.str();
}

std::string
render_stats(const StatsSnapshot &stats)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("stats");
    w.key("requests_served").value(stats.requests_served);
    w.key("dedup_hits").value(stats.dedup_hits);
    w.key("response_lru_hits").value(stats.response_lru_hits);
    w.key("response_lru_evictions").value(stats.response_lru_evictions);
    w.key("response_lru_entries").value(stats.response_lru_entries);
    w.key("response_lru_bytes").value(stats.response_lru_bytes);
    w.key("cache_hits").value(stats.cache_hits);
    w.key("sim_runs").value(stats.sim_runs);
    w.key("rejected_overloaded").value(stats.rejected_overloaded);
    w.key("rejected_shutting_down").value(stats.rejected_shutting_down);
    w.key("protocol_errors").value(stats.protocol_errors);
    w.key("sessions_accepted").value(stats.sessions_accepted);
    w.key("open_connections").value(stats.open_connections);
    w.key("loop_connections").begin_array();
    for (const std::uint64_t connections : stats.loop_connections)
        w.value(connections);
    w.end_array();
    w.key("queue_depth").value(stats.queue_depth);
    w.key("running").value(stats.running);
    w.key("latency_p50_ms").value(stats.latency_p50_ms);
    w.key("latency_p99_ms").value(stats.latency_p99_ms);
    w.key("uptime_seconds").value(stats.uptime_seconds);
    w.end_object();
    return w.str();
}

std::string
render_health(const HealthSnapshot &health)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("health");
    w.key("pid").value(health.pid);
    w.key("draining").value(health.draining);
    w.key("uptime_seconds").value(health.uptime_seconds);
    w.end_object();
    return w.str();
}

std::string
render_run_response(const core::SuiteOutcome &outcome,
                    const core::ExperimentRequest &request,
                    std::uint64_t fingerprint)
{
    std::uint64_t simulated = 0;
    std::uint64_t loaded = 0;
    for (const auto &slot : outcome.slots)
        if (slot)
            ++(slot->from_cache ? loaded : simulated);

    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("run");
    w.key("request_fingerprint").value(util::hex64(fingerprint));
    w.key("interrupted").value(outcome.interrupted);
    w.key("suites").begin_array();
    w.begin_object();
    w.key("simulated").value(simulated);
    w.key("loaded").value(loaded);
    w.key("failed").value(
        static_cast<std::uint64_t>(outcome.failures.size()));
    w.end_object();
    w.end_array();
    w.key("benchmarks").begin_array();
    for (const auto &slot : outcome.slots) {
        if (!slot)
            continue;
        const core::ExperimentResult &run = *slot;
        const std::string bytes = core::serialize_result(run);
        w.begin_object();
        w.key("benchmark").value(run.workload);
        w.key("instructions").value(run.core.instructions);
        w.key("cycles").value(run.core.cycles);
        w.key("ipc").value(run.core.ipc());
        w.key("from_cache").value(run.from_cache);
        w.key("result_fnv")
            .value(util::hex64(util::fnv1a(bytes.data(), bytes.size())));
        if (request.want_payload)
            w.key("payload").value(hex_encode(bytes));
        w.end_object();
    }
    w.end_array();
    w.key("failures").begin_array();
    for (const core::SuiteJobFailure &failure : outcome.failures) {
        w.begin_object();
        w.key("benchmark").value(failure.workload);
        w.key("kind").value(util::error_kind_name(failure.kind));
        w.key("message").value(failure.message);
        w.key("retries").value(
            static_cast<std::uint64_t>(failure.retries));
        w.end_object();
    }
    w.end_array();
    w.key("cache_health").begin_object();
    w.key("store_failures").value(outcome.cache.store_failures);
    w.key("corrupt_entries").value(outcome.cache.corrupt_entries);
    w.key("degraded_jobs").value(outcome.cache.degraded_jobs);
    w.key("degraded").value(outcome.cache.degraded);
    w.end_object();
    w.end_object();
    return w.str();
}

} // namespace leakbound::serve
