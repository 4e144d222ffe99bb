/**
 * @file
 * Robustness tests of the serve wire layer: the JSON parser, the
 * length-prefixed frame codec, hex payload coding, and the typed
 * error round trip.  The invariant under test everywhere: malformed
 * or hostile input — truncated frames, oversized length prefixes,
 * garbage JSON, a peer that vanishes mid-request — produces a typed
 * util::Status, never a crash, hang, or out-of-bounds read.
 *
 * Carries the `serve` and `sanitize` CTest labels, so the asan preset
 * runs the code that parses untrusted network bytes; the
 * injector-driven NetFaults cases also carry `chaos` and skip
 * themselves when fault injection is compiled out.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <string>
#include <thread>
#include <utility>

#include <unistd.h>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

using namespace leakbound;
using namespace leakbound::serve;
namespace net = leakbound::util::net;
namespace fault = leakbound::util::fault;

namespace {

/** A connected loopback (client, server) socket pair. */
std::pair<net::Socket, net::Socket>
connected_pair()
{
    auto listener = net::listen_tcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.has_value()) << listener.status().to_string();
    auto client =
        net::connect_tcp("127.0.0.1", net::local_port(listener.value()));
    EXPECT_TRUE(client.has_value()) << client.status().to_string();
    auto server = net::accept_connection(listener.value());
    EXPECT_TRUE(server.has_value()) << server.status().to_string();
    return {client.take(), server.take()};
}

} // namespace

// ---------------------------------------------------------------- JSON

TEST(JsonParse, RoundTripsTheWriterOutput)
{
    util::JsonWriter w;
    w.begin_object();
    w.key("name").value("leak\"bound\n");
    w.key("count").value(std::uint64_t{18446744073709551615ull});
    w.key("ratio").value(0.25);
    w.key("flag").value(true);
    w.key("edges").begin_array();
    w.value(std::uint64_t{1});
    w.value(std::uint64_t{10000});
    w.end_array();
    w.key("nothing").null();
    w.end_object();

    auto parsed = util::json_parse(w.str());
    ASSERT_TRUE(parsed.has_value()) << parsed.status().to_string();
    const util::JsonValue &doc = parsed.value();
    ASSERT_TRUE(doc.is_object());
    EXPECT_EQ(doc.find("name")->string_value(), "leak\"bound\n");
    ASSERT_TRUE(doc.find("count")->is_u64());
    EXPECT_EQ(doc.find("count")->u64_value(), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(doc.find("ratio")->number_value(), 0.25);
    EXPECT_TRUE(doc.find("flag")->bool_value());
    ASSERT_TRUE(doc.find("edges")->is_array());
    EXPECT_EQ(doc.find("edges")->array().size(), 2u);
    EXPECT_TRUE(doc.find("nothing")->is_null());
    EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(JsonParse, TracksU64Exactness)
{
    auto exact = util::json_parse("8000000");
    ASSERT_TRUE(exact.has_value());
    EXPECT_TRUE(exact.value().is_u64());
    EXPECT_EQ(exact.value().u64_value(), 8'000'000u);

    // Scientific notation and negatives are numbers but not exact u64s.
    for (const char *text : {"8e6", "-1", "1.5"}) {
        auto inexact = util::json_parse(text);
        ASSERT_TRUE(inexact.has_value()) << text;
        EXPECT_TRUE(inexact.value().is_number()) << text;
        EXPECT_FALSE(inexact.value().is_u64()) << text;
    }
}

TEST(JsonParse, DecodesEscapesAndSurrogatePairs)
{
    auto parsed =
        util::json_parse("\"a\\u0041\\n\\t\\\\\\ud83d\\ude00\"");
    ASSERT_TRUE(parsed.has_value()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().string_value(),
              "aA\n\t\\\xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformedInputWithTypedStatus)
{
    const char *cases[] = {
        "",            // empty
        "{",           // unterminated object
        "[1,]",        // trailing comma
        "{\"a\":}",    // missing value
        "nul",         // truncated keyword
        "01",          // leading zero
        "1 2",         // trailing garbage
        "\"\\q\"",     // bad escape
        "\"\\ud83d\"", // lone surrogate
        "{\"a\" 1}",   // missing colon
        "\"unterminated",
    };
    for (const char *text : cases) {
        auto parsed = util::json_parse(text);
        ASSERT_FALSE(parsed.has_value()) << "accepted: " << text;
        EXPECT_EQ(parsed.status().kind(), util::ErrorKind::CorruptData)
            << text;
    }
}

TEST(JsonParse, RejectsExcessiveNestingWithoutOverflow)
{
    std::string deep;
    for (std::size_t i = 0; i <= util::kJsonMaxDepth; ++i)
        deep += '[';
    for (std::size_t i = 0; i <= util::kJsonMaxDepth; ++i)
        deep += ']';
    auto parsed = util::json_parse(deep);
    ASSERT_FALSE(parsed.has_value());
    EXPECT_EQ(parsed.status().kind(), util::ErrorKind::CorruptData);

    std::string shallow = "[[[[1]]]]";
    EXPECT_TRUE(util::json_parse(shallow).has_value());
}

// --------------------------------------------------------------- frames

TEST(FrameCodec, RoundTripsPayloadsIncludingEmpty)
{
    auto [client, server] = connected_pair();
    for (const std::string &payload :
         {std::string(), std::string("{}"),
          std::string(100'000, 'x')}) {
        ASSERT_TRUE(send_frame(client, payload).ok());
        auto got = recv_frame(server);
        ASSERT_TRUE(got.has_value()) << got.status().to_string();
        EXPECT_EQ(got.value(), payload);
    }
}

TEST(FrameCodec, HeaderCarriesTheLengthUpToTheCap)
{
    for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                   std::size_t{0x030201},
                                   kDefaultMaxFrameBytes}) {
        const std::string header = [size] {
            std::string framed;
            append_frame(framed, std::string(size, 'x'));
            return framed.substr(0, kFrameHeaderBytes);
        }();
        auto got = read_frame_header(header.data());
        ASSERT_TRUE(got.has_value()) << got.status().to_string();
        EXPECT_EQ(got.value(), size);
    }
    // Little-endian, so this announces the cap plus one byte.
    const unsigned char over_cap[4] = {0x01, 0x00, 0x00, 0x01};
    auto got = read_frame_header(reinterpret_cast<const char *>(over_cap));
    ASSERT_FALSE(got.has_value());
    EXPECT_EQ(got.status().kind(), util::ErrorKind::CorruptData);
}

TEST(FrameCodec, SenderRefusesOversizedPayloadWithoutWriting)
{
    auto [client, server] = connected_pair();
    util::Status refused =
        send_frame(client, std::string(kDefaultMaxFrameBytes + 1, 'x'));
    EXPECT_EQ(refused.kind(), util::ErrorKind::InvalidArgument);
    // Nothing reached the peer: a small frame sent next is intact.
    ASSERT_TRUE(send_frame(client, "after").ok());
    auto got = recv_frame(server);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got.value(), "after");
}

TEST(FrameCodec, OversizedLengthPrefixIsCorruptDataNotAnAllocation)
{
    auto [client, server] = connected_pair();
    // A lying prefix: 0xffffffff bytes announced, none sent.
    const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_TRUE(net::send_all(client, header, sizeof(header)).ok());
    auto got = recv_frame(server);
    ASSERT_FALSE(got.has_value());
    EXPECT_EQ(got.status().kind(), util::ErrorKind::CorruptData);
}

TEST(FrameCodec, TruncatedHeaderIsCorruptData)
{
    auto [client, server] = connected_pair();
    const unsigned char half[2] = {0x10, 0x00};
    ASSERT_TRUE(net::send_all(client, half, sizeof(half)).ok());
    client.close(); // peer vanishes mid-header
    auto got = recv_frame(server);
    ASSERT_FALSE(got.has_value());
    EXPECT_EQ(got.status().kind(), util::ErrorKind::CorruptData);
}

TEST(FrameCodec, TruncatedPayloadIsCorruptData)
{
    auto [client, server] = connected_pair();
    const unsigned char header[4] = {100, 0, 0, 0}; // announces 100
    ASSERT_TRUE(net::send_all(client, header, sizeof(header)).ok());
    ASSERT_TRUE(net::send_all(client, "only ten b", 10).ok());
    client.close(); // peer vanishes mid-payload
    auto got = recv_frame(server);
    ASSERT_FALSE(got.has_value());
    EXPECT_EQ(got.status().kind(), util::ErrorKind::CorruptData);
}

TEST(FrameCodec, CleanCloseBetweenFramesIsConnectionClosed)
{
    auto [client, server] = connected_pair();
    client.close();
    auto got = recv_frame(server);
    ASSERT_FALSE(got.has_value());
    EXPECT_EQ(got.status().kind(), util::ErrorKind::ConnectionClosed);
}

// ------------------------------------------------------------------ hex

TEST(Hex, RoundTripsArbitraryBytes)
{
    std::string bytes;
    for (int i = 0; i < 256; ++i)
        bytes.push_back(static_cast<char>(i));
    const std::string hex = hex_encode(bytes);
    EXPECT_EQ(hex.size(), 512u);
    auto decoded = hex_decode(hex);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value(), bytes);
}

TEST(Hex, RejectsOddLengthAndNonHex)
{
    EXPECT_EQ(hex_decode("abc").status().kind(),
              util::ErrorKind::CorruptData);
    EXPECT_EQ(hex_decode("zz").status().kind(),
              util::ErrorKind::CorruptData);
    EXPECT_TRUE(hex_decode("AbCd").has_value()); // upper case accepted
}

// --------------------------------------------------------- typed errors

TEST(ErrorFrames, RoundTripEveryErrorKind)
{
    using util::ErrorKind;
    for (const ErrorKind kind :
         {ErrorKind::IoError, ErrorKind::NotFound,
          ErrorKind::CorruptData, ErrorKind::Interrupted,
          ErrorKind::InvalidArgument,
          ErrorKind::FaultInjected, ErrorKind::Internal,
          ErrorKind::Overloaded, ErrorKind::ShuttingDown,
          ErrorKind::ConnectionClosed}) {
        const std::string frame =
            render_error(util::Status(kind, "why it failed"));
        auto parsed = util::json_parse(frame);
        ASSERT_TRUE(parsed.has_value());
        const util::JsonValue &doc = parsed.value();
        EXPECT_EQ(doc.find("status")->string_value(), "error");
        auto decoded = util::error_kind_from_name(
            doc.find("kind")->string_value());
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(*decoded, kind);
        EXPECT_EQ(doc.find("message")->string_value(), "why it failed");
    }
    EXPECT_FALSE(util::error_kind_from_name("no_such_kind").has_value());
}

// ----------------------------------------------------- sigpipe hygiene

TEST(SigpipeHygiene, WritingToAHalfClosedSocketNeverKillsTheProcess)
{
    // The daemon and client both run install_signal_handlers(), which
    // ignores SIGPIPE process-wide; util::net sends additionally pass
    // MSG_NOSIGNAL.  Either layer alone suffices — this test proves
    // the combination: a peer that hangs up mid-conversation surfaces
    // as a typed ConnectionClosed (or a plain EPIPE for raw writes),
    // never as a process-killing signal.
    util::install_signal_handlers();
    auto [client, server] = connected_pair();
    server.close(); // peer vanishes

    // Push until the kernel notices the close; a small socket buffer
    // means a handful of sends at most.
    const std::string chunk(64 * 1024, 'p');
    util::Status last;
    for (int i = 0; i < 64 && last.ok(); ++i)
        last = net::send_all(client, chunk.data(), chunk.size());
    EXPECT_EQ(last.kind(), util::ErrorKind::ConnectionClosed);

    // A raw write bypassing MSG_NOSIGNAL relies on the SIG_IGN
    // disposition alone.  Reaching the EXPECT below *is* the test.
    errno = 0;
    (void)!::write(client.fd(), chunk.data(), chunk.size());
    EXPECT_TRUE(errno == EPIPE || errno == 0 || errno == ECONNRESET);
}

// ------------------------------------------------- truncated responses

TEST(TruncatedResponse, FrameCutMidBodyIsTypedAndRetryableNeverParsed)
{
    // A daemon killed mid-reply leaves the client holding a header
    // that promises more bytes than will ever arrive.  The client must
    // surface a typed CorruptData and never hand a partial JSON
    // document to the parser.
    auto [client, server] = connected_pair();
    std::thread lying_server([&server = server] {
        auto request = recv_frame(server);
        ASSERT_TRUE(request.has_value());
        // Header announces 1000 bytes; only 12 follow before close.
        const unsigned char header[4] = {0xe8, 0x03, 0x00, 0x00};
        ASSERT_TRUE(net::send_all(server, header, sizeof(header)).ok());
        ASSERT_TRUE(net::send_all(server, "{\"status\":\"o", 12).ok());
        server.close();
    });
    auto response = call(client, build_ping_request());
    lying_server.join();
    ASSERT_FALSE(response.has_value());
    EXPECT_EQ(response.status().kind(), util::ErrorKind::CorruptData);
}

// ------------------------------------------------------ latency recorder

TEST(LatencyRecorder, ExactQuantilesUnderCapacity)
{
    util::LatencyRecorder recorder(1024);
    for (int i = 1; i <= 100; ++i)
        recorder.add(static_cast<double>(i));
    EXPECT_EQ(recorder.count(), 100u);
    EXPECT_DOUBLE_EQ(recorder.min(), 1.0);
    EXPECT_DOUBLE_EQ(recorder.max(), 100.0);
    EXPECT_NEAR(recorder.p50(), 50.0, 1.0);
    EXPECT_NEAR(recorder.p99(), 99.0, 1.0);
    EXPECT_DOUBLE_EQ(recorder.quantile(0.0), 1.0);
}

TEST(LatencyRecorder, DecimatesPastCapacityButKeepsExtremes)
{
    util::LatencyRecorder recorder(64);
    for (int i = 0; i < 10'000; ++i)
        recorder.add(static_cast<double>(i % 1000));
    EXPECT_EQ(recorder.count(), 10'000u);
    EXPECT_DOUBLE_EQ(recorder.min(), 0.0);   // summary is not decimated
    EXPECT_DOUBLE_EQ(recorder.max(), 999.0);
    const double p50 = recorder.p50();
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, 999.0);
}

// -------------------------------------------------- injected net faults

class NetFaults : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!fault::kEnabled)
            GTEST_SKIP() << "injector compiled out "
                            "(-DLEAKBOUND_FAULT_INJECTION=OFF)";
        fault::reset();
    }

    void TearDown() override
    {
        if (fault::kEnabled)
            fault::reset();
    }
};

TEST_F(NetFaults, ReadFaultSurfacesAsTypedStatus)
{
    auto [client, server] = connected_pair();
    ASSERT_TRUE(send_frame(client, "{}").ok());
    ASSERT_TRUE(fault::configure("net_read=1.0", 7));
    auto got = recv_frame(server);
    ASSERT_FALSE(got.has_value());
    EXPECT_EQ(got.status().kind(), util::ErrorKind::FaultInjected);
    fault::reset();
    // The injected failure consumed nothing: after clearing the spec
    // the frame is still intact on the wire.
    auto retry = recv_frame(server);
    ASSERT_TRUE(retry.has_value()) << retry.status().to_string();
    EXPECT_EQ(retry.value(), "{}");
}

TEST_F(NetFaults, WriteFaultSurfacesAsTypedStatus)
{
    auto [client, server] = connected_pair();
    ASSERT_TRUE(fault::configure("net_write=1.0", 7));
    util::Status sent = send_frame(client, "{}");
    EXPECT_EQ(sent.kind(), util::ErrorKind::FaultInjected);
}

TEST_F(NetFaults, AcceptFaultSurfacesAsTypedStatus)
{
    auto listener = net::listen_tcp("127.0.0.1", 0);
    ASSERT_TRUE(listener.has_value());
    auto client =
        net::connect_tcp("127.0.0.1", net::local_port(listener.value()));
    ASSERT_TRUE(client.has_value());
    ASSERT_TRUE(fault::configure("net_accept=1.0", 7));
    auto accepted = net::accept_connection(listener.value());
    ASSERT_FALSE(accepted.has_value());
    EXPECT_EQ(accepted.status().kind(), util::ErrorKind::FaultInjected);
}

TEST_F(NetFaults, ShortWritesNeverTruncateAFrame)
{
    // net_short_write=1.0 halves *every* write attempt: a 64 KiB
    // frame only gets through if send_all resumes from its offset
    // across ~17 successive truncations.  The frame must arrive
    // byte-identical — a short write is a retry condition, never data
    // loss.
    auto [client, server] = connected_pair();
    std::string big(64 * 1024, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>('a' + i % 26);

    ASSERT_TRUE(fault::configure("net_short_write=1.0", 7));
    util::Status sent = send_frame(client, big);
    ASSERT_TRUE(sent.ok()) << sent.to_string();
    fault::reset();

    auto got = recv_frame(server);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    EXPECT_EQ(got.value().size(), big.size());
    EXPECT_TRUE(got.value() == big)
        << "frame corrupted by short-write resumption";
}
