/**
 * @file
 * Tests of the leakboundd service layer: request decoding, the
 * dedup/backpressure scheduler, graceful drain, a full
 * daemon-in-a-thread round trip whose results must be byte-identical
 * to the offline suite runner, and the daemon's event loops: two in
 * every ServeFixture case, four in the cases that check how
 * connections spread over them.
 *
 * Carries the `serve` and `sanitize` CTest labels — the scheduler and
 * server are the repo's most thread-shaped code, so the tsan preset
 * runs this whole file under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "core/experiment_request.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/status.hpp"

using namespace leakbound;
using namespace leakbound::serve;
namespace net = leakbound::util::net;

namespace {

/** A small decoded run request (one fast benchmark). */
core::ExperimentRequest
small_request(bool want_payload = false)
{
    auto parsed = util::json_parse(
        R"({"type":"run","benchmarks":["gzip"],"instructions":20000)"
        + std::string(want_payload ? R"(,"payload":true})" : "}"));
    EXPECT_TRUE(parsed.has_value());
    auto decoded = core::decode_experiment_request(parsed.value());
    EXPECT_TRUE(decoded.has_value()) << decoded.status().to_string();
    return decoded.take();
}

/** Gate the suite hook blocks on until the test opens it. */
struct Gate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    std::atomic<std::uint64_t> entered{0};

    core::SuiteJobHook
    hook()
    {
        return [this](const std::string &) {
            std::unique_lock<std::mutex> lock(mutex);
            ++entered;
            cv.wait(lock, [this] { return open; });
        };
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mutex);
        open = true;
        cv.notify_all();
    }
};

/** Spin until @p predicate or the deadline; returns whether it held. */
template <typename F>
bool
eventually(F predicate,
           std::chrono::milliseconds deadline =
               std::chrono::seconds(10))
{
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return predicate();
}

/** Parse a rendered response and return its "status" member. */
std::string
response_status(const std::string &frame)
{
    auto parsed = util::json_parse(frame);
    EXPECT_TRUE(parsed.has_value()) << frame;
    return parsed.value().find("status")->string_value();
}

std::string
response_kind(const std::string &frame)
{
    auto parsed = util::json_parse(frame);
    EXPECT_TRUE(parsed.has_value()) << frame;
    const util::JsonValue *kind = parsed.value().find("kind");
    return kind == nullptr ? "" : kind->string_value();
}

/** The frames carrying @p payloads, back to back, for one write. */
std::string
concat_frames(const std::vector<std::string> &payloads)
{
    std::string out;
    for (const std::string &payload : payloads) {
        for (int shift = 0; shift < 32; shift += 8)
            out.push_back(
                static_cast<char>((payload.size() >> shift) & 0xff));
        out += payload;
    }
    return out;
}

using Response = std::shared_ptr<const std::string>;

/** Submit @p request; the future receives what submit_async delivers. */
std::future<Response>
submit(Scheduler &scheduler, core::ExperimentRequest request)
{
    auto promise = std::make_shared<std::promise<Response>>();
    std::future<Response> future = promise->get_future();
    scheduler.submit_async(std::move(request),
                           [promise](Response response) {
                               promise->set_value(std::move(response));
                           });
    return future;
}

/** Whether @p future is already answered (no waiting). */
bool
answered(const std::future<Response> &future)
{
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

} // namespace

// -------------------------------------------------------- request decode

TEST(DecodeRequest, AcceptsTheFullSchemaAndAbsorbsStandardEdges)
{
    auto parsed = util::json_parse(
        R"({"type":"run","benchmarks":["gzip","mesa"],)"
        R"("instructions":50000,"nl_lead_time":32,"collect_l2":true,)"
        R"("extra_edges":[123,456],"payload":true})");
    ASSERT_TRUE(parsed.has_value());
    auto decoded = core::decode_experiment_request(parsed.value());
    ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
    const core::ExperimentRequest &request = decoded.value();
    EXPECT_EQ(request.benchmarks,
              (std::vector<std::string>{"gzip", "mesa"}));
    EXPECT_EQ(request.config.instructions, 50'000u);
    EXPECT_EQ(request.config.nl_lead_time, 32u);
    EXPECT_TRUE(request.config.collect_l2);
    EXPECT_TRUE(request.want_payload);
    // standard_edges defaults on: the stock thresholds come first and
    // the request's own edges ride along.
    const auto &edges = request.config.extra_edges;
    EXPECT_GT(edges.size(), 2u);
    EXPECT_NE(std::find(edges.begin(), edges.end(), 123u), edges.end());
}

TEST(DecodeRequest, RejectsBadInputWithInvalidArgument)
{
    const char *cases[] = {
        R"({"type":"run"})",                          // no benchmarks
        R"({"type":"run","benchmarks":[]})",          // empty
        R"({"type":"run","benchmarks":["nope"]})",    // unknown name
        R"({"type":"run","benchmarks":[1]})",         // wrong type
        R"({"type":"run","benchmarks":["gzip"],"instructions":10})",
        R"({"type":"run","benchmarks":["gzip"],"instructions":-5})",
        R"({"type":"run","benchmarks":["gzip"],"jobs":4})",
        R"({"type":"run","benchmarks":["gzip"],"cache_dir":"/x"})",
        R"({"type":"run","benchmarks":["gzip"],"keep_raw":true})",
        R"({"type":"run","benchmarks":["gzip"],"typo_key":1})",
        R"({"type":"run","benchmarks":["gzip"],"extra_edges":[-1]})",
        R"({"type":"run","benchmarks":["gzip"],"engine":"warp"})",
        R"({"type":"run","benchmarks":["gzip"],"engine":1})",
        R"({"type":"run","benchmarks":["gzip"],"engine":"sim"})", // no such key
    };
    for (const char *text : cases) {
        auto parsed = util::json_parse(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        auto decoded = core::decode_experiment_request(parsed.value());
        ASSERT_FALSE(decoded.has_value()) << "accepted: " << text;
        EXPECT_EQ(decoded.status().kind(),
                  util::ErrorKind::InvalidArgument)
            << text;
    }
}

TEST(DecodeRequest, EnforcesTheDaemonInstructionCeiling)
{
    auto parsed = util::json_parse(
        R"({"type":"run","benchmarks":["gzip"],"instructions":200000})");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(core::decode_experiment_request(parsed.value(), 200'000)
                    .has_value());
    EXPECT_FALSE(
        core::decode_experiment_request(parsed.value(), 199'999)
            .has_value());
}

TEST(DecodeRequest, FingerprintSeparatesWhatMustNotShareResponses)
{
    const core::ExperimentRequest plain = small_request(false);
    const core::ExperimentRequest with_payload = small_request(true);
    EXPECT_EQ(core::fingerprint_request(plain),
              core::fingerprint_request(small_request(false)));
    // A payload-bearing response renders differently, so it must not
    // join a payload-free dedup group.
    EXPECT_NE(core::fingerprint_request(plain),
              core::fingerprint_request(with_payload));
    // Server-owned knobs are excluded: stamping them cannot split a
    // dedup group.
    core::ExperimentRequest stamped = small_request(false);
    stamped.config.jobs = 7;
    stamped.config.cache_dir = "/somewhere";
    stamped.config.ignore_interrupts = true;
    EXPECT_EQ(core::fingerprint_request(plain),
              core::fingerprint_request(stamped));
}

// -------------------------------------------------------------- scheduler

TEST(Scheduler, DedupesConcurrentIdenticalRequestsIntoOneSimulation)
{
    constexpr unsigned kClients = 8;
    Gate gate;
    SchedulerConfig config;
    config.workers = 1;
    config.max_queue = 4;
    config.before_job = gate.hook();
    Scheduler scheduler(config);

    // Everyone is admitted before the one simulation may proceed, so
    // all eight share the in-flight job.
    std::vector<std::future<Response>> responses;
    for (unsigned i = 0; i < kClients; ++i)
        responses.push_back(submit(scheduler, small_request()));
    ASSERT_TRUE(eventually([&] { return gate.entered.load() >= 1; }));
    EXPECT_EQ(scheduler.counters().submitted, kClients);
    gate.release();

    std::vector<Response> bodies;
    for (std::future<Response> &response : responses)
        bodies.push_back(response.get());
    const SchedulerCounters counters = scheduler.counters();
    EXPECT_EQ(counters.simulations, 1u) << "dedup failed: identical "
                                           "concurrent requests "
                                           "simulated more than once";
    EXPECT_EQ(counters.dedup_hits, kClients - 1);
    EXPECT_EQ(counters.served, kClients);
    for (const Response &body : bodies) {
        ASSERT_NE(body, nullptr);
        // Byte-identity by construction: the same response object.
        EXPECT_EQ(body, bodies[0]);
        EXPECT_EQ(response_status(*body), "ok");
    }
}

TEST(Scheduler, RejectsPastBoundRequestsOverloadedWithinADeadline)
{
    Gate gate;
    SchedulerConfig config;
    config.workers = 1;
    config.max_queue = 1;
    config.before_job = gate.hook();
    Scheduler scheduler(config);

    // A: occupies the one worker (blocked at the gate).
    std::future<Response> a = submit(scheduler, small_request());
    ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));

    // B: fills the one queue slot.  Payload=true keeps its fingerprint
    // distinct from A's so it queues instead of joining A.
    std::future<Response> b = submit(scheduler, small_request(true));
    EXPECT_EQ(scheduler.counters().queue_depth, 1u);

    // C: past the bound — must be rejected typed and at once, not
    // wait behind the stuck worker.
    core::ExperimentRequest distinct = small_request();
    distinct.config.nl_lead_time = 99; // distinct fingerprint
    std::future<Response> c = submit(scheduler, std::move(distinct));
    ASSERT_TRUE(answered(c));
    EXPECT_EQ(response_kind(*c.get()), "overloaded");
    EXPECT_EQ(scheduler.counters().rejected_overloaded, 1u);

    gate.release();
    EXPECT_EQ(response_status(*a.get()), "ok");
    EXPECT_EQ(response_status(*b.get()), "ok");
}

TEST(Scheduler, DrainFailsQueuedJobsAndFinishesInFlightOnes)
{
    Gate gate;
    SchedulerConfig config;
    config.workers = 1;
    config.max_queue = 4;
    config.before_job = gate.hook();
    Scheduler scheduler(config);

    std::future<Response> running = submit(scheduler, small_request());
    ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
    std::future<Response> queued = submit(scheduler, small_request(true));
    EXPECT_EQ(scheduler.counters().queue_depth, 1u);
    // A dedup joiner on the queued job: its waiter must be accounted
    // as rejected, not served, when the drain fails the job.
    std::future<Response> joined = submit(scheduler, small_request(true));
    EXPECT_EQ(scheduler.counters().dedup_hits, 1u);

    std::thread drainer([&] { scheduler.drain(); });
    // The queued job fails without waiting for the running one.
    const Response queued_response = queued.get();
    EXPECT_EQ(response_status(*queued_response), "error");
    EXPECT_EQ(response_kind(*queued_response), "shutting_down");
    EXPECT_EQ(joined.get(), queued_response);
    EXPECT_FALSE(answered(running));

    gate.release(); // let the in-flight job finish
    drainer.join();
    ASSERT_TRUE(answered(running));
    EXPECT_EQ(response_status(*running.get()), "ok")
        << "an admitted-and-started request must complete on drain";

    // After the drain no new work is admitted.
    std::future<Response> late = submit(scheduler, small_request());
    ASSERT_TRUE(answered(late));
    EXPECT_EQ(response_kind(*late.get()), "shutting_down");

    // Every waiter landed in exactly one /stats bucket: the running
    // job's waiter was served; the drained job's two waiters and the
    // late submit were rejected — never both served and rejected.
    const SchedulerCounters counters = scheduler.counters();
    EXPECT_EQ(counters.served, 1u);
    EXPECT_EQ(counters.rejected_shutting_down, 3u);
}

// --------------------------------------------------------- response LRU

TEST(ResponseLru, HitReturnsTheExactRenderedObject)
{
    SchedulerConfig config;
    config.workers = 1;
    Scheduler scheduler(config);

    const Response first = submit(scheduler, small_request()).get();
    std::future<Response> second = submit(scheduler, small_request());
    // A hit is answered on the submitting thread, before submit returns.
    ASSERT_TRUE(answered(second));
    // Not merely equal bytes: the very same rendered object the cold
    // run produced.
    EXPECT_EQ(second.get(), first);
    EXPECT_EQ(response_status(*first), "ok");

    const SchedulerCounters counters = scheduler.counters();
    EXPECT_EQ(counters.simulations, 1u)
        << "the warm twin should never have reached a worker";
    EXPECT_EQ(counters.response_lru_hits, 1u);
    EXPECT_EQ(counters.served, 2u);
    EXPECT_EQ(counters.response_lru_entries, 1u);
    EXPECT_GT(counters.response_lru_bytes, 0u);
}

TEST(ResponseLru, EvictsAtTheByteBudgetInRecencyOrder)
{
    // Probe pass: learn what one payload-bearing response costs.
    std::uint64_t probe_bytes = 0;
    {
        SchedulerConfig config;
        config.workers = 1;
        Scheduler probe(config);
        ASSERT_EQ(response_status(*submit(probe, small_request(true)).get()),
                  "ok");
        probe_bytes = probe.counters().response_lru_bytes;
        ASSERT_GT(probe_bytes, 0u);
    }

    // Budget sized for exactly the payload-bearing response: the
    // (smaller) plain response then fits only by evicting it.
    SchedulerConfig config;
    config.workers = 1;
    config.response_cache_bytes =
        static_cast<std::size_t>(probe_bytes);
    Scheduler scheduler(config);
    auto run = [&](bool want_payload) {
        return response_status(
            *submit(scheduler, small_request(want_payload)).get());
    };

    ASSERT_EQ(run(true), "ok");
    EXPECT_EQ(scheduler.counters().response_lru_entries, 1u);
    ASSERT_EQ(run(false), "ok");
    {
        const SchedulerCounters counters = scheduler.counters();
        EXPECT_EQ(counters.response_lru_evictions, 1u)
            << "inserting past the byte budget must evict the tail";
        EXPECT_EQ(counters.response_lru_entries, 1u);
        EXPECT_LE(counters.response_lru_bytes,
                  config.response_cache_bytes);
    }

    // The survivor hits; the evicted shape re-simulates.
    ASSERT_EQ(run(false), "ok");
    EXPECT_EQ(scheduler.counters().response_lru_hits, 1u);
    ASSERT_EQ(run(true), "ok");
    const SchedulerCounters counters = scheduler.counters();
    EXPECT_EQ(counters.simulations, 3u)
        << "an evicted response must not be served from the LRU";
    EXPECT_EQ(counters.response_lru_hits, 1u);
    EXPECT_EQ(counters.response_lru_evictions, 2u);
}

TEST(ResponseLru, ZeroBudgetDisablesCachingEntirely)
{
    SchedulerConfig config;
    config.workers = 1;
    config.response_cache_bytes = 0;
    Scheduler scheduler(config);

    ASSERT_EQ(response_status(*submit(scheduler, small_request()).get()),
              "ok");
    ASSERT_EQ(response_status(*submit(scheduler, small_request()).get()),
              "ok");
    const SchedulerCounters counters = scheduler.counters();
    EXPECT_EQ(counters.simulations, 2u);
    EXPECT_EQ(counters.response_lru_hits, 0u);
    EXPECT_EQ(counters.response_lru_entries, 0u);
    EXPECT_EQ(counters.response_lru_bytes, 0u);
}

// ------------------------------------------------------ deadline shedding

TEST(Scheduler, ShedsUnmeetableDeadlinesWithoutQueueing)
{
    Gate gate;
    SchedulerConfig config;
    config.workers = 1;
    config.max_queue = 4;
    // Seed the cost model so shedding is deterministic: every job is
    // assumed to take ten seconds.
    config.assumed_job_ms = 10'000.0;
    config.before_job = gate.hook();
    Scheduler scheduler(config);

    // A: occupies the one worker, held at the gate.
    std::future<Response> a = submit(scheduler, small_request());
    ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));

    // B: distinct shape, 1 ms deadline — with a 10 s cost model the
    // estimate cannot fit, so it is shed typed and at once.
    core::ExperimentRequest doomed = small_request(true);
    doomed.deadline_ms = 1;
    std::future<Response> b = submit(scheduler, std::move(doomed));
    ASSERT_TRUE(answered(b));
    EXPECT_EQ(response_kind(*b.get()), "overloaded");
    EXPECT_EQ(scheduler.counters().rejected_deadline, 1u);

    // C: the same shape with no deadline queues normally — deadline
    // shedding must never reject deadline-free requests.
    std::future<Response> c = submit(scheduler, small_request(true));
    EXPECT_EQ(scheduler.counters().queue_depth, 1u);

    // D: an identical twin of C carrying a hopeless deadline joins the
    // in-flight group instead of being shed — the deadline is
    // admission metadata, not part of the dedup key.
    core::ExperimentRequest twin = small_request(true);
    twin.deadline_ms = 1;
    std::future<Response> d = submit(scheduler, std::move(twin));
    EXPECT_EQ(scheduler.counters().dedup_hits, 1u);

    gate.release();
    EXPECT_EQ(response_status(*a.get()), "ok");
    EXPECT_EQ(response_status(*c.get()), "ok");
    EXPECT_EQ(response_status(*d.get()), "ok");

    const SchedulerCounters counters = scheduler.counters();
    EXPECT_EQ(counters.served, 3u);
    EXPECT_EQ(counters.rejected_deadline, 1u);
    EXPECT_EQ(counters.rejected_overloaded, 0u);
}

// ----------------------------------------------------------- full daemon

namespace {

/**
 * A Server on an ephemeral loopback port + a serve() thread, with
 * @p workers scheduler workers and as many event loops.
 */
class ServeFixture : public ::testing::Test
{
  protected:
    void
    start(ServerConfig config = {}, unsigned workers = 2)
    {
        config.unix_path.clear();
        config.listen_tcp = true;
        config.tcp_port = 0;
        config.scheduler.workers = workers;
        server = std::make_unique<Server>(std::move(config));
        ASSERT_TRUE(server->start().ok());
        endpoint.tcp_port = server->tcp_port();
        thread = std::thread([this] {
            util::Status served = server->serve();
            EXPECT_TRUE(served.ok()) << served.to_string();
        });
    }

    void
    TearDown() override
    {
        if (server)
            server->request_drain();
        if (thread.joinable())
            thread.join();
    }

    std::unique_ptr<Server> server;
    std::thread thread;
    Endpoint endpoint; // tcp 127.0.0.1:<ephemeral>
};

} // namespace

TEST_F(ServeFixture, RoundTripIsByteIdenticalToTheOfflineSuite)
{
    start();

    RunRequest request;
    request.benchmarks = {"gzip", "mesa"};
    request.instructions = 20'000;
    request.want_payload = true;
    auto response =
        call_endpoint(endpoint, build_run_request(request));
    ASSERT_TRUE(response.has_value()) << response.status().to_string();
    const util::JsonValue &body = response.value();
    ASSERT_TRUE(body.find("benchmarks")->is_array());
    const auto &runs = body.find("benchmarks")->array();
    ASSERT_EQ(runs.size(), 2u);

    // The offline oracle: same knobs through the ordinary suite path.
    core::ExperimentConfig config;
    config.instructions = 20'000;
    config.extra_edges = core::standard_extra_edges();
    const std::vector<core::ExperimentResult> offline =
        core::run_suite({"gzip", "mesa"}, config);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::string oracle =
            core::serialize_result(offline[i]);
        auto payload = hex_decode(
            runs[i].find("payload")->string_value());
        ASSERT_TRUE(payload.has_value());
        EXPECT_EQ(payload.value(), oracle)
            << "daemon result for " << offline[i].workload
            << " is not byte-identical to the offline suite";
        EXPECT_EQ(runs[i].find("result_fnv")->string_value(),
                  util::hex64(
                      util::fnv1a(oracle.data(), oracle.size())));
        // And the payload really deserializes.
        EXPECT_TRUE(
            core::deserialize_result(payload.value()).has_value());
    }
}

TEST_F(ServeFixture, SurvivesGarbageFramesAndVanishingPeers)
{
    start();

    // Garbage JSON inside an intact frame: typed error, session lives.
    {
        auto socket = connect_endpoint(endpoint);
        ASSERT_TRUE(socket.has_value());
        ASSERT_TRUE(
            send_frame(socket.value(), "this is not json").ok());
        auto error = recv_frame(socket.value());
        ASSERT_TRUE(error.has_value());
        EXPECT_EQ(response_status(error.value()), "error");
        EXPECT_EQ(response_kind(error.value()), "corrupt_data");
        // Same connection still speaks the protocol.
        auto pong = call(socket.value(), build_ping_request());
        ASSERT_TRUE(pong.has_value()) << pong.status().to_string();
    }

    // Unknown type and non-object requests: typed errors.
    {
        auto socket = connect_endpoint(endpoint);
        ASSERT_TRUE(socket.has_value());
        auto bad_type = call(socket.value(),
                             R"({"type":"frobnicate"})");
        ASSERT_FALSE(bad_type.has_value());
        EXPECT_EQ(bad_type.status().kind(),
                  util::ErrorKind::InvalidArgument);
        auto not_object = call(socket.value(), "[1,2,3]");
        ASSERT_FALSE(not_object.has_value());
        EXPECT_EQ(not_object.status().kind(),
                  util::ErrorKind::InvalidArgument);
    }

    // A peer that dies mid-header.
    {
        auto socket = connect_endpoint(endpoint);
        ASSERT_TRUE(socket.has_value());
        const unsigned char half[2] = {0x40, 0x00};
        ASSERT_TRUE(
            net::send_all(socket.value(), half, sizeof(half)).ok());
    } // closed here

    // A peer that lies in its length prefix, then dies.
    {
        auto socket = connect_endpoint(endpoint);
        ASSERT_TRUE(socket.has_value());
        const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
        ASSERT_TRUE(
            net::send_all(socket.value(), huge, sizeof(huge)).ok());
    }

    // Through all of that the daemon still serves, and counted the
    // trouble.
    ASSERT_TRUE(eventually([&] {
        return server->stats().protocol_errors >= 3;
    }));
    auto stats = call_endpoint(endpoint, build_stats_request());
    ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
    EXPECT_GE(stats.value().find("protocol_errors")->u64_value(), 3u);
}

TEST_F(ServeFixture, LoadRunDedupesAndReportsIdenticalResponses)
{
    start();

    RunRequest request;
    request.benchmarks = {"gzip"};
    request.instructions = 20'000;
    LoadOptions options;
    options.total = 8;
    options.concurrency = 8;
    const LoadReport report = run_load(endpoint, request, options);
    EXPECT_EQ(report.sent, 8u);
    EXPECT_EQ(report.ok, 8u);
    EXPECT_EQ(report.overloaded, 0u);
    EXPECT_EQ(report.distinct_fingerprints, 1u);
    EXPECT_EQ(report.distinct_responses, 1u)
        << "identical requests produced non-identical response bytes";

    const StatsSnapshot stats = server->stats();
    EXPECT_EQ(stats.requests_served, 8u);
    // At least the concurrent overlap deduped or a straggler hit the
    // response LRU; either way byte-identity holds, per
    // distinct_responses above.
    EXPECT_GE(stats.dedup_hits + stats.response_lru_hits +
                  stats.cache_hits,
              1u);
}

TEST_F(ServeFixture, ReapsFinishedSessionsUnderSustainedArrival)
{
    ServerConfig config;
    config.max_sessions = 4;
    start(config);

    // 8x the session cap, back-to-back: each connection completes one
    // ping and closes before the next opens, so at any moment at most
    // a few sessions linger unfinished.  The accept loop must reap
    // finished sessions on every iteration — if it only reaps when the
    // poll times out, this sustained arrival keeps the poll busy, dead
    // sessions pile up to the cap, and almost every later connection
    // is shed Overloaded despite zero live sessions.
    constexpr unsigned kConnections = 32;
    unsigned ok = 0;
    unsigned overloaded = 0;
    for (unsigned i = 0; i < kConnections; ++i) {
        auto pong = call_endpoint(endpoint, build_ping_request());
        if (pong.has_value()) {
            ++ok;
        } else {
            ASSERT_EQ(pong.status().kind(),
                      util::ErrorKind::Overloaded)
                << pong.status().to_string();
            ++overloaded;
        }
    }
    // Buggy reaping rejects ~(kConnections - max_sessions) of these;
    // a couple of transient rejections from scheduling lag are fine.
    EXPECT_GE(ok, kConnections - 2u);
    EXPECT_LE(overloaded, 2u);
    EXPECT_GE(server->stats().sessions_accepted, kConnections);
}

TEST_F(ServeFixture, StatsReportServedAndLatency)
{
    start();

    auto pong = call_endpoint(endpoint, build_ping_request());
    ASSERT_TRUE(pong.has_value());

    RunRequest request;
    request.benchmarks = {"gzip"};
    request.instructions = 20'000;
    auto run = call_endpoint(endpoint, build_run_request(request));
    ASSERT_TRUE(run.has_value()) << run.status().to_string();

    auto response = call_endpoint(endpoint, build_stats_request());
    ASSERT_TRUE(response.has_value());
    const util::JsonValue &stats = response.value();
    EXPECT_EQ(stats.find("requests_served")->u64_value(), 1u);
    EXPECT_GE(stats.find("sessions_accepted")->u64_value(), 3u);
    EXPECT_GT(stats.find("latency_p50_ms")->number_value(), 0.0);
    EXPECT_GE(stats.find("latency_p99_ms")->number_value(),
              stats.find("latency_p50_ms")->number_value());
    EXPECT_GT(stats.find("uptime_seconds")->number_value(), 0.0);
    EXPECT_EQ(stats.find("loop_connections")->array().size(), 2u);

    // The health probe a process manager polls: this process, serving.
    auto health = call_endpoint(endpoint, R"({"type":"health"})");
    ASSERT_TRUE(health.has_value()) << health.status().to_string();
    EXPECT_EQ(health.value().find("pid")->u64_value(),
              static_cast<std::uint64_t>(::getpid()));
    EXPECT_FALSE(health.value().find("draining")->bool_value());
}

TEST_F(ServeFixture, StatsCountResponseLruHitsExactly)
{
    start();

    RunRequest request;
    request.benchmarks = {"gzip"};
    request.instructions = 20'000;

    std::string cold_raw;
    auto cold = call_endpoint(endpoint, build_run_request(request),
                              kDefaultMaxFrameBytes, &cold_raw);
    ASSERT_TRUE(cold.has_value()) << cold.status().to_string();

    // Five sequential reruns: each must be a response-LRU hit carrying
    // the cold render's exact bytes.
    constexpr unsigned kReruns = 5;
    for (unsigned i = 0; i < kReruns; ++i) {
        std::string warm_raw;
        auto warm = call_endpoint(endpoint, build_run_request(request),
                                  kDefaultMaxFrameBytes, &warm_raw);
        ASSERT_TRUE(warm.has_value()) << warm.status().to_string();
        EXPECT_EQ(warm_raw, cold_raw)
            << "LRU-hit rerun " << i
            << " is not byte-identical to the cold render";
    }

    auto response = call_endpoint(endpoint, build_stats_request());
    ASSERT_TRUE(response.has_value());
    const util::JsonValue &stats = response.value();
    // Exact accounting, not just >=: one cold simulation, five hits,
    // one cached entry.
    EXPECT_EQ(stats.find("requests_served")->u64_value(),
              1u + kReruns);
    EXPECT_EQ(stats.find("response_lru_hits")->u64_value(), kReruns);
    EXPECT_EQ(stats.find("response_lru_entries")->u64_value(), 1u);
    EXPECT_GT(stats.find("response_lru_bytes")->u64_value(), 0u);
    EXPECT_EQ(stats.find("response_lru_evictions")->u64_value(), 0u);
}

TEST_F(ServeFixture, ShedsDeadlinesEndToEnd)
{
    // Seed the cost model at ten seconds per job: any request carrying
    // a millisecond-scale deadline is unmeetable from the first
    // admission, deterministically.
    ServerConfig config;
    config.scheduler.assumed_job_ms = 10'000.0;
    start(config);

    // Deadline-free requests are never shed, whatever the model says.
    RunRequest request;
    request.benchmarks = {"gzip"};
    request.instructions = 20'000;
    auto ok = call_endpoint(endpoint, build_run_request(request));
    ASSERT_TRUE(ok.has_value()) << ok.status().to_string();

    // A distinct (cold) shape with a 1 ms deadline is shed typed.
    RunRequest doomed = request;
    doomed.want_payload = true;
    doomed.deadline_ms = 1;
    auto shed = call_endpoint(endpoint, build_run_request(doomed));
    ASSERT_FALSE(shed.has_value());
    EXPECT_EQ(shed.status().kind(), util::ErrorKind::Overloaded);
    EXPECT_EQ(server->stats().rejected_deadline, 1u);
    EXPECT_EQ(server->stats().rejected_overloaded, 0u)
        << "deadline sheds must be counted apart from queue-bound "
           "rejections";

    // The same shape with a generous deadline is admitted and served.
    doomed.deadline_ms = 3'600'000;
    auto served = call_endpoint(endpoint, build_run_request(doomed));
    ASSERT_TRUE(served.has_value()) << served.status().to_string();
    EXPECT_EQ(server->stats().rejected_deadline, 1u);
}

TEST_F(ServeFixture, PipelinedRequestsAnswerInOrderOnOneConnection)
{
    start();

    auto socket = connect_endpoint(endpoint);
    ASSERT_TRUE(socket.has_value()) << socket.status().to_string();

    // Four frames back-to-back, no reads in between: ping, stats, an
    // actual run (orders of magnitude slower than the pings), ping.
    RunRequest request;
    request.benchmarks = {"gzip"};
    request.instructions = 20'000;
    ASSERT_TRUE(send_frame(socket.value(), build_ping_request()).ok());
    ASSERT_TRUE(send_frame(socket.value(), build_stats_request()).ok());
    ASSERT_TRUE(
        send_frame(socket.value(), build_run_request(request)).ok());
    ASSERT_TRUE(send_frame(socket.value(), build_ping_request()).ok());

    // Replies come back in request order: the trailing ping's reply
    // must wait behind the run even though it was ready first.
    std::string warm;
    const char *expected[] = {"pong", "stats", "run", "pong"};
    for (const char *type : expected) {
        auto frame = recv_frame(socket.value());
        ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
        auto parsed = util::json_parse(frame.value());
        ASSERT_TRUE(parsed.has_value()) << frame.value();
        EXPECT_EQ(parsed.value().find("status")->string_value(), "ok");
        EXPECT_EQ(parsed.value().find("type")->string_value(), type)
            << "pipelined replies arrived out of request order";
        if (std::string(type) == "run")
            warm = frame.value();
    }
    ASSERT_FALSE(warm.empty());

    // Four response-LRU hits in one write: the loop reads and answers
    // them as one batch, and each reply is the warm body byte for byte.
    const std::string hit = build_run_request(request);
    const std::string hits = concat_frames({hit, hit, hit, hit});
    ASSERT_TRUE(
        net::send_all(socket.value(), hits.data(), hits.size()).ok());
    for (int i = 0; i < 4; ++i) {
        auto frame = recv_frame(socket.value());
        ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
        EXPECT_EQ(frame.value(), warm) << "LRU hit " << i;
    }

    // Two LRU hits queued behind a cold run: ready first, they still
    // wait for the run's reply.
    RunRequest cold = request;
    cold.instructions = 30'000;
    const std::string behind =
        concat_frames({build_run_request(cold), hit, hit});
    ASSERT_TRUE(
        net::send_all(socket.value(), behind.data(), behind.size()).ok());
    auto first = recv_frame(socket.value());
    ASSERT_TRUE(first.has_value()) << first.status().to_string();
    auto parsed = util::json_parse(first.value());
    ASSERT_TRUE(parsed.has_value()) << first.value();
    EXPECT_EQ(parsed.value().find("status")->string_value(), "ok");
    EXPECT_EQ(parsed.value().find("type")->string_value(), "run");
    EXPECT_NE(first.value(), warm)
        << "an LRU hit overtook the cold run queued before it";
    for (int i = 0; i < 2; ++i) {
        auto frame = recv_frame(socket.value());
        ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
        EXPECT_EQ(frame.value(), warm) << "LRU hit " << i
                                       << " behind the cold run";
    }
    EXPECT_EQ(server->stats().response_lru_hits, 6u);
}

// ------------------------------------------------------- four event loops

namespace {

/** Open @p n connections to @p endpoint, one after another. */
std::vector<net::Socket>
open_connections(const Endpoint &endpoint, unsigned n)
{
    std::vector<net::Socket> sockets;
    for (unsigned i = 0; i < n; ++i) {
        auto socket = connect_endpoint(endpoint);
        EXPECT_TRUE(socket.has_value()) << socket.status().to_string();
        if (socket)
            sockets.push_back(socket.take());
    }
    return sockets;
}

/** Wait until the server's loops own @p expected connections each. */
bool
owned_by_loops(const Server &server, std::vector<std::uint64_t> expected)
{
    return eventually(
        [&] { return server.stats().loop_connections == expected; });
}

RunRequest
gzip_request(std::uint64_t instructions = 20'000)
{
    RunRequest request;
    request.benchmarks = {"gzip"};
    request.instructions = instructions;
    return request;
}

} // namespace

TEST_F(ServeFixture, FourLoopsShareOneSimulationAndOneResponseBody)
{
    // The one simulation waits until every copy has been admitted.
    Gate gate;
    ServerConfig config;
    config.scheduler.before_job = gate.hook();
    start(config, /*workers=*/4);

    // Connections are dealt to the loops in turn: two per loop.  This
    // fails when they all land on one loop.
    std::vector<net::Socket> sockets = open_connections(endpoint, 8);
    ASSERT_EQ(sockets.size(), 8u);
    ASSERT_TRUE(owned_by_loops(*server, {2, 2, 2, 2}))
        << "connections did not spread over the four loops";

    const std::string request = build_run_request(gzip_request());
    for (net::Socket &socket : sockets)
        ASSERT_TRUE(send_frame(socket, request).ok());
    ASSERT_TRUE(eventually([&] {
        return gate.entered.load() == 1 && server->stats().dedup_hits == 7;
    }));
    gate.release();

    std::set<std::string> bodies;
    for (net::Socket &socket : sockets) {
        auto frame = recv_frame(socket);
        ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
        EXPECT_EQ(response_status(frame.value()), "ok");
        bodies.insert(frame.value());
    }
    EXPECT_EQ(bodies.size(), 1u)
        << "identical requests answered on different loops differ";
    const StatsSnapshot stats = server->stats();
    EXPECT_EQ(stats.sim_runs, 1u);
    EXPECT_EQ(stats.requests_served, 8u);
}

TEST_F(ServeFixture, FourLoopsKeepPipelinedRepliesInRequestOrder)
{
    Gate gate;
    ServerConfig config;
    config.scheduler.before_job = gate.hook();
    start(config, /*workers=*/4);

    std::vector<net::Socket> sockets = open_connections(endpoint, 4);
    ASSERT_EQ(sockets.size(), 4u);
    ASSERT_TRUE(owned_by_loops(*server, {1, 1, 1, 1}));

    // On every loop: ping, run, stats, ping, with no reads between.
    // The run is held at the gate until all four are admitted, so the
    // stats and trailing ping replies are ready long before it.
    for (net::Socket &socket : sockets) {
        ASSERT_TRUE(send_frame(socket, build_ping_request()).ok());
        ASSERT_TRUE(
            send_frame(socket, build_run_request(gzip_request())).ok());
        ASSERT_TRUE(send_frame(socket, build_stats_request()).ok());
        ASSERT_TRUE(send_frame(socket, build_ping_request()).ok());
    }
    ASSERT_TRUE(eventually([&] {
        return gate.entered.load() == 1 && server->stats().dedup_hits == 3;
    }));
    gate.release();

    const char *expected[] = {"pong", "run", "stats", "pong"};
    for (std::size_t i = 0; i < sockets.size(); ++i) {
        for (const char *type : expected) {
            auto frame = recv_frame(sockets[i]);
            ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
            auto parsed = util::json_parse(frame.value());
            ASSERT_TRUE(parsed.has_value()) << frame.value();
            EXPECT_EQ(parsed.value().find("status")->string_value(), "ok");
            EXPECT_EQ(parsed.value().find("type")->string_value(), type)
                << "loop " << i << " answered out of request order";
        }
    }
}

TEST_F(ServeFixture, FourLoopsAdmitExactlyMaxSessions)
{
    ServerConfig config;
    config.max_sessions = 6;
    start(config, /*workers=*/4);

    // Twelve connections from four threads at once, so several loops
    // accept at the same time; every one stays open.
    std::vector<net::Socket> sockets;
    std::mutex mutex;
    std::vector<std::thread> openers;
    for (unsigned t = 0; t < 4; ++t) {
        openers.emplace_back([&] {
            std::vector<net::Socket> mine = open_connections(endpoint, 3);
            std::lock_guard<std::mutex> lock(mutex);
            for (net::Socket &socket : mine)
                sockets.push_back(std::move(socket));
        });
    }
    for (std::thread &opener : openers)
        opener.join();
    ASSERT_EQ(sockets.size(), 12u);
    ASSERT_TRUE(eventually(
        [&] { return server->stats().sessions_accepted == 12; }));

    unsigned ok = 0;
    unsigned overloaded = 0;
    for (net::Socket &socket : sockets) {
        auto pong = call(socket, build_ping_request());
        if (pong.has_value())
            ++ok;
        else if (pong.status().kind() == util::ErrorKind::Overloaded)
            ++overloaded;
        else
            ADD_FAILURE() << pong.status().to_string();
    }
    EXPECT_EQ(ok, 6u);
    EXPECT_EQ(overloaded, 6u);
    const StatsSnapshot stats = server->stats();
    EXPECT_EQ(stats.open_connections, 6u);
    EXPECT_EQ(stats.rejected_overloaded, 6u);
    std::uint64_t owned = 0;
    for (const std::uint64_t connections : stats.loop_connections)
        owned += connections;
    EXPECT_EQ(owned, 6u);
}

TEST_F(ServeFixture, FourLoopsDrainAnswersAdmittedWorkInFlight)
{
    Gate gate;
    ServerConfig config;
    config.scheduler.before_job = gate.hook();
    start(config, /*workers=*/4);

    // Five connections, one more on the first loop: four distinct
    // requests occupy the four workers and the fifth queues.
    std::vector<net::Socket> sockets = open_connections(endpoint, 5);
    ASSERT_EQ(sockets.size(), 5u);
    ASSERT_TRUE(owned_by_loops(*server, {2, 1, 1, 1}));
    for (std::size_t i = 0; i < sockets.size(); ++i) {
        ASSERT_TRUE(send_frame(sockets[i], build_run_request(gzip_request(
                                               20'000 + i)))
                        .ok());
    }
    ASSERT_TRUE(eventually([&] {
        return gate.entered.load() == 4 && server->stats().queue_depth == 1;
    }));

    // Drain while all four run: the queued request fails typed, and
    // the four admitted ones still finish and are answered by the
    // loops that own their connections.
    server->request_drain();
    ASSERT_TRUE(eventually(
        [&] { return server->stats().rejected_shutting_down == 1; }));
    gate.release();

    unsigned ok = 0;
    unsigned shutting_down = 0;
    for (net::Socket &socket : sockets) {
        auto frame = recv_frame(socket);
        ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
        if (response_status(frame.value()) == "ok")
            ++ok;
        else if (response_kind(frame.value()) == "shutting_down")
            ++shutting_down;
    }
    EXPECT_EQ(ok, 4u);
    EXPECT_EQ(shutting_down, 1u);
    thread.join(); // serve() itself must return ok (checked there)
}
