/**
 * @file
 * daemon_sweep: an in-process leakboundd on loopback TCP, driven as a
 * closed loop (each persistent client connection keeps exactly one
 * request in flight) by a seeded mix of three request classes:
 *
 *   hot     repeats of a small fingerprint set, answered by the
 *           daemon's response LRU (warmed during set-up)
 *   stored  first requests for fingerprints pre-simulated into the
 *           daemon's private artifact cache during set-up (cache reads)
 *   fresh   fingerprints never seen before: simulate, then store (cache
 *           writes)
 *
 * The timed phase is a series of sweeps.  Each sweep gets a fresh
 * daemon and a fresh private cache directory, so no state leaks from
 * one sweep (or one run) into the next; its set-up (daemon start,
 * stored pre-population, hot warm-up) is timed separately.
 */

#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "core/artifact_cache.hpp"
#include "core/experiment_request.hpp"
#include "ledger.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "workload/spec_suite.hpp"
#include "workloads.hpp"

namespace leakbench {

using namespace leakbound;

namespace {

/** Requests per sweep, and the stored / fresh shares (percent). */
constexpr std::size_t kSweepRequests = 4000;
constexpr std::size_t kShortSweepRequests = 200;
constexpr std::size_t kStoredPercent = 5;
constexpr std::size_t kFreshPercent = 5;

/** Instruction budgets: hot and fresh near one size, stored small. */
constexpr std::uint64_t kHotInstructions = 40'000;
constexpr std::uint64_t kStoredInstructions = 4'000;
constexpr std::uint64_t kShortHotInstructions = 5'000;
constexpr std::uint64_t kShortStoredInstructions = 2'000;

enum class Kind : std::uint8_t { Hot, Stored, Fresh };

const char *
kind_name(Kind kind)
{
    switch (kind) {
      case Kind::Hot:
        return "hot";
      case Kind::Stored:
        return "stored";
      case Kind::Fresh:
        return "fresh";
    }
    return "?";
}

/** The span of one request of @p kind (built once, not per request). */
const std::string &
span_name(Kind kind)
{
    static const std::string names[] = {"serve.request.hot",
                                        "serve.request.stored",
                                        "serve.request.fresh"};
    return names[static_cast<std::size_t>(kind)];
}

/** One planned request: which benchmark, at which budget. */
struct Planned
{
    Kind kind = Kind::Hot;
    std::string benchmark;
    std::uint64_t instructions = 0;
    std::string json;
};

/** What the client saw for one request. */
struct Observed
{
    double latency_ms = 0.0;
    bool ok = false;
    bool from_cache = false;
    std::string result_fnv;
    std::string error;
};

/** Connections and daemon workers, together no more than nproc. */
struct Shape
{
    unsigned connections = 1;
    unsigned workers = 1;
};

Shape
shape()
{
    const unsigned n = std::max(2u, std::thread::hardware_concurrency());
    return {n / 2, n - n / 2};
}

std::string
request_json(const std::string &benchmark, std::uint64_t instructions)
{
    serve::RunRequest request;
    request.benchmarks = {benchmark};
    request.instructions = instructions;
    return serve::build_run_request(request);
}

/** The config the daemon derives from @p json (same decode path). */
core::ExperimentRequest
decode(const std::string &json)
{
    auto parsed = util::json_parse(json);
    if (!parsed)
        throw util::StatusError(parsed.status());
    auto decoded = core::decode_experiment_request(parsed.value());
    if (!decoded)
        throw util::StatusError(decoded.status());
    return decoded.take();
}

/**
 * The sweep's request sequence: exact class counts, shuffled by the
 * seed; benchmarks assigned round-robin from a seeded offset so every
 * seed does the same amount of simulation work.
 */
std::vector<Planned>
plan_sweep(std::uint64_t seed, std::size_t sweep, std::size_t requests,
           std::uint64_t hot_instructions, std::uint64_t stored_instructions)
{
    const auto &names = workload::suite_names();
    const std::size_t stored = requests * kStoredPercent / 100;
    const std::size_t fresh = requests * kFreshPercent / 100;
    std::vector<Kind> kinds(requests, Kind::Hot);
    for (std::size_t i = 0; i < stored; ++i)
        kinds[i] = Kind::Stored;
    for (std::size_t i = 0; i < fresh; ++i)
        kinds[stored + i] = Kind::Fresh;
    std::uint64_t state = seed * 0x100000001b3ULL + sweep;
    shuffle(kinds, splitmix64(state));

    const std::size_t offset = splitmix64(state) % names.size();
    std::size_t next_stored = 0, next_fresh = 0;
    std::vector<Planned> plan(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        Planned &p = plan[i];
        p.kind = kinds[i];
        switch (p.kind) {
          case Kind::Hot:
            p.benchmark = names[splitmix64(state) % names.size()];
            p.instructions = hot_instructions;
            break;
          case Kind::Stored:
            // Distinct small budgets: each is its own fingerprint.
            p.benchmark = names[(offset + next_stored) % names.size()];
            p.instructions = stored_instructions + next_stored++;
            break;
          case Kind::Fresh:
            // Budgets just above the hot one: new fingerprints that
            // cost a hot request's simulation.
            p.benchmark = names[(offset + next_fresh) % names.size()];
            p.instructions = hot_instructions + 1 + next_fresh++;
            break;
        }
        p.json = request_json(p.benchmark, p.instructions);
    }
    return plan;
}

using DigestKey = std::pair<std::string, std::uint64_t>;

/** The daemon and its private cache for one sweep. */
class Daemon
{
  public:
    Daemon(const std::string &dir, unsigned workers) : dir_(dir)
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        serve::ServerConfig config;
        config.listen_tcp = true; // 127.0.0.1, ephemeral port
        config.scheduler.workers = workers;
        config.scheduler.suite_jobs = 1;
        config.scheduler.cache_dir = cache_dir();
        server_ = std::make_unique<serve::Server>(config);
        if (util::Status started = server_->start(); !started.ok())
            throw util::StatusError(started);
        serving_ = std::thread([this] { served_ = server_->serve(); });
        endpoint_.tcp_port = server_->tcp_port();
    }

    ~Daemon()
    {
        (void)stop();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Drain the daemon and wait for its event loop; the loop's verdict. */
    util::Status
    stop()
    {
        if (serving_.joinable()) {
            server_->request_drain();
            serving_.join();
        }
        return served_;
    }

    std::string cache_dir() const { return dir_ + "/cache"; }
    const serve::Endpoint &endpoint() const { return endpoint_; }
    serve::StatsSnapshot stats() const { return server_->stats(); }

  private:
    std::string dir_;
    serve::Endpoint endpoint_;
    std::unique_ptr<serve::Server> server_;
    util::Status served_;
    std::thread serving_; ///< declared last: joins before the rest dies
};

/** Parse the single benchmark entry of a run response. */
void
read_response(const util::Expected<util::JsonValue> &response,
              Observed &seen)
{
    if (!response) {
        seen.error = response.status().to_string();
        return;
    }
    const util::JsonValue *benchmarks = response.value().find("benchmarks");
    if (benchmarks == nullptr || !benchmarks->is_array() ||
        benchmarks->array().size() != 1) {
        seen.error = "run response without exactly one benchmark";
        return;
    }
    const util::JsonValue &entry = benchmarks->array().front();
    const util::JsonValue *fnv = entry.find("result_fnv");
    const util::JsonValue *cached = entry.find("from_cache");
    if (fnv == nullptr || !fnv->is_string() || cached == nullptr ||
        !cached->is_bool()) {
        seen.error = "run response without result_fnv/from_cache";
        return;
    }
    seen.result_fnv = fnv->string_value();
    seen.from_cache = cached->bool_value();
    seen.ok = true;
}

/** Everything the sweeps of one run accumulate. */
struct SweepLog
{
    std::vector<double> setup_s;
    std::vector<double> wall_s;
    /** Per sweep: whether it ran with the tracer enabled. */
    std::vector<bool> traced;
    std::vector<Planned> planned;
    std::vector<Observed> observed;
    std::vector<double> store_ms;
    std::vector<double> load_ms;
    double entry_kb = 0.0;
    serve::StatsSnapshot stats; ///< summed over sweeps
    /** Offline digests of every stored fingerprint (set-up results). */
    std::map<DigestKey, std::string> offline;
};

void
add_stats(serve::StatsSnapshot &sum, const serve::StatsSnapshot &s)
{
    sum.requests_served += s.requests_served;
    sum.dedup_hits += s.dedup_hits;
    sum.response_lru_hits += s.response_lru_hits;
    sum.cache_hits += s.cache_hits;
    sum.rejected_overloaded += s.rejected_overloaded;
    sum.rejected_deadline += s.rejected_deadline;
    sum.rejected_shutting_down += s.rejected_shutting_down;
    sum.protocol_errors += s.protocol_errors;
}

/**
 * One sweep: set up a daemon, time the closed loop over @p plan, tear
 * down.  Returns the timed seconds.
 */
double
run_sweep(const Options &options, std::size_t sweep,
          std::vector<Planned> plan, Clock::time_point setup_begun,
          Tracer &tracer, SweepLog &log, bool measure_loads)
{
    const Shape sh = shape();
    const std::string dir = options.scratch_dir + "/daemon-sweep";

    Daemon daemon(dir, sh.workers);

    // Stored class: simulate offline (on every CPU) and publish into the
    // daemon's private cache under the key its suite runner will probe.
    core::ArtifactCache cache(daemon.cache_dir());
    struct Published
    {
        std::uint64_t key;
        std::string digest;
        double store_ms;
        util::Status status;
    };
    std::vector<std::uint64_t> stored_keys;
    {
        util::ThreadPool pool(
            std::max(1u, std::thread::hardware_concurrency()));
        std::vector<std::pair<const Planned *, std::future<Published>>> jobs;
        for (const Planned &p : plan) {
            if (p.kind != Kind::Stored)
                continue;
            jobs.emplace_back(&p, pool.submit([&cache, &p] {
                const core::ExperimentRequest request = decode(p.json);
                auto w = workload::make_benchmark(p.benchmark);
                const core::ExperimentResult result =
                    core::run_experiment(*w, request.config);
                Published out;
                out.key =
                    core::fingerprint_experiment(p.benchmark, request.config);
                out.digest = conserved(result) ? result_digest(result)
                                               : "not-conserved";
                const auto begun = Clock::now();
                out.status = cache.store(out.key, result);
                out.store_ms = seconds_since(begun) * 1e3;
                return out;
            }));
        }
        for (auto &[p, future] : jobs) {
            Published published = future.get();
            if (!published.status.ok())
                throw util::StatusError(published.status);
            log.store_ms.push_back(published.store_ms);
            stored_keys.push_back(published.key);
            log.offline[{p->benchmark, p->instructions}] = published.digest;
        }
    }

    // Hot class: one request per hot fingerprint warms the LRU.
    std::map<DigestKey, bool> warmed;
    auto warm_socket = serve::connect_endpoint(daemon.endpoint());
    if (!warm_socket)
        throw util::StatusError(warm_socket.status());
    for (const Planned &p : plan) {
        if (p.kind != Kind::Hot ||
            !warmed.emplace(DigestKey{p.benchmark, p.instructions}, true)
                 .second)
            continue;
        Observed seen;
        read_response(serve::call(warm_socket.value(), p.json), seen);
        if (!seen.ok)
            throw util::StatusError(util::Status(
                util::ErrorKind::Internal, "hot warm-up failed: " +
                                               seen.error));
    }

    std::vector<util::net::Socket> sockets;
    for (unsigned c = 0; c < sh.connections; ++c) {
        auto s = serve::connect_endpoint(daemon.endpoint());
        if (!s)
            throw util::StatusError(s.status());
        sockets.push_back(s.take());
    }
    log.setup_s.push_back(seconds_since(setup_begun));

    // The timed closed loop.
    std::vector<Observed> observed(plan.size());
    std::atomic<std::size_t> next{0};
    const std::uint64_t base_id = log.planned.size();
    const auto begun = Clock::now();
    {
        ScopedSpan sweep_span(tracer, "serve.sweep", -1, sweep);
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < sh.connections; ++c) {
            clients.emplace_back([&, c] {
                for (;;) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= plan.size())
                        return;
                    ScopedSpan span(tracer, span_name(plan[i].kind),
                                    sweep_span.id(), base_id + i);
                    const auto sent = Clock::now();
                    auto response = serve::call(sockets[c], plan[i].json);
                    observed[i].latency_ms = seconds_since(sent) * 1e3;
                    read_response(response, observed[i]);
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
    const double timed = seconds_since(begun);
    log.wall_s.push_back(timed);

    add_stats(log.stats, daemon.stats());
    if (measure_loads) {
        for (std::uint64_t key : stored_keys) {
            const auto t = Clock::now();
            const auto loaded = cache.try_load(key);
            log.load_ms.push_back(seconds_since(t) * 1e3);
            if (loaded) {
                std::error_code ec;
                log.entry_kb = static_cast<double>(std::filesystem::file_size(
                                   cache.entry_path(key), ec)) /
                               1024.0;
            }
        }
    }
    sockets.clear();
    if (util::Status drained = daemon.stop(); !drained.ok())
        throw util::StatusError(drained);

    // The log outlives the sweep; keep it small (and the process's
    // footprint independent of how many sweeps ran) by dropping the
    // request bytes, which request_json() rebuilds on demand.
    for (Planned &p : plan)
        std::string().swap(p.json);
    log.planned.insert(log.planned.end(), std::make_move_iterator(plan.begin()),
                       std::make_move_iterator(plan.end()));
    log.observed.insert(log.observed.end(), observed.begin(), observed.end());
    return timed;
}

/**
 * Offline digests for every fingerprint the log has no digest for yet
 * (hot and fresh), simulated directly through run_experiment on the
 * same decoded config the daemon used.  The results at @p keep_budget
 * (the hot set) land in @p results.  A result that breaks frame-time
 * conservation gets a digest no response can match.
 */
void
complete_offline_digests(SweepLog &log, std::uint64_t keep_budget,
                         std::vector<core::ExperimentResult> &results)
{
    std::map<DigestKey, std::string> missing;
    for (const Planned &p : log.planned) {
        DigestKey key{p.benchmark, p.instructions};
        if (!log.offline.count(key))
            missing.emplace(key, request_json(p.benchmark, p.instructions));
    }
    // Workers reduce each result to its digest, so at most the kept
    // results stay in memory while the queue drains.
    struct Verified
    {
        std::string digest;
        std::optional<core::ExperimentResult> kept;
    };
    util::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::pair<DigestKey, std::future<Verified>>> futures;
    for (const auto &[key, json] : missing) {
        const bool keep = key.second == keep_budget;
        futures.emplace_back(key, pool.submit([name = key.first, json, keep] {
            const core::ExperimentRequest request = decode(json);
            auto w = workload::make_benchmark(name);
            core::ExperimentResult result =
                core::run_experiment(*w, request.config);
            Verified out;
            out.digest =
                conserved(result) ? result_digest(result) : "not-conserved";
            if (keep)
                out.kept.emplace(std::move(result));
            return out;
        }));
    }
    for (auto &[key, future] : futures) {
        Verified verified = future.get();
        log.offline[key] = verified.digest;
        if (verified.kept)
            results.push_back(std::move(*verified.kept));
    }
}

/** The correctness gate: one operation per request. */
void
check_responses(const SweepLog &log, Outcome &outcome)
{
    for (std::size_t i = 0; i < log.planned.size(); ++i) {
        const Planned &p = log.planned[i];
        const Observed &seen = log.observed[i];
        const std::string what = std::string(kind_name(p.kind)) + " " +
                                 p.benchmark + "@" +
                                 std::to_string(p.instructions);
        if (!seen.ok) {
            outcome.record(false, what + ": " + seen.error);
            continue;
        }
        const auto it = log.offline.find({p.benchmark, p.instructions});
        if (it == log.offline.end() || it->second != seen.result_fnv) {
            outcome.record(false, what + ": result_fnv " + seen.result_fnv +
                                      " differs from the offline digest");
            continue;
        }
        outcome.record(p.kind != Kind::Stored || seen.from_cache,
                       what + ": was not served from the artifact cache");
    }
}

} // namespace

void
run_daemon_sweep(const Options &options, Expectations &, Tracer &tracer,
                 RunOutput &out)
{
    const std::size_t requests =
        options.short_budget ? kShortSweepRequests : kSweepRequests;
    const std::uint64_t hot =
        options.short_budget ? kShortHotInstructions : kHotInstructions;
    const std::uint64_t stored = options.short_budget
                                     ? kShortStoredInstructions
                                     : kStoredInstructions;

    // Untraced sweeps give the end-to-end figures.  A traced run
    // follows each with a traced sweep, so both see the same spells of
    // host contention.
    SweepLog log;
    Tracer quiet(false);
    std::size_t sweep = 0;
    repeat_for(options.seconds, 3, [&](int) {
        const auto setup_begun = sweep == 0 ? options.started : Clock::now();
        const double untraced_s = run_sweep(
            options, sweep,
            plan_sweep(options.seed, sweep, requests, hot, stored),
            setup_begun, quiet, log, options.trace);
        log.traced.push_back(false);
        ++sweep;
        if (!options.trace)
            return untraced_s;
        const double traced_s = run_sweep(
            options, sweep,
            plan_sweep(options.seed, sweep, requests, hot, stored),
            Clock::now(), tracer, log, false);
        log.traced.push_back(true);
        ++sweep;
        return untraced_s + traced_s;
    });

    std::vector<double> setup, wall, ns_per_instr, latency, traced_wall;
    std::map<Kind, std::vector<double>> by_kind;
    for (std::size_t k = 0; k < log.traced.size(); ++k) {
        if (log.traced[k]) {
            traced_wall.push_back(log.wall_s[k]);
            continue;
        }
        setup.push_back(log.setup_s[k]);
        wall.push_back(log.wall_s[k]);
        std::vector<double> fresh;
        for (std::size_t i = k * requests; i < (k + 1) * requests; ++i) {
            const Planned &p = log.planned[i];
            const double ms = log.observed[i].latency_ms;
            latency.push_back(ms);
            by_kind[p.kind].push_back(ms);
            if (p.kind == Kind::Fresh)
                fresh.push_back(ms * 1e6 /
                                static_cast<double>(p.instructions));
        }
        ns_per_instr.push_back(median(fresh));
    }
    // The fastest sweep, as on the simulation workloads; the client
    // latencies of every sweep.
    out.samples["wall_s"] = wall;
    iteration_metrics(setup, minimum(wall), minimum(ns_per_instr), out);
    out.info["req_per_s"] = {static_cast<double>(requests) / minimum(wall),
                             "1/s"};
    latency_metrics(latency, out);
    out.info["hot_requests"] = {double(by_kind[Kind::Hot].size()), "count"};
    out.info["stored_requests"] = {double(by_kind[Kind::Stored].size()),
                                   "count"};
    out.info["fresh_requests"] = {double(by_kind[Kind::Fresh].size()),
                                  "count"};

    std::vector<core::ExperimentResult> hot_results;
    complete_offline_digests(log, hot, hot_results);
    check_responses(log, out.outcome);
    if (!options.trace)
        return;

    tracing_overhead(minimum(wall), minimum(traced_wall), out);

    out.layers["serve.hot_p50_ms"] = {median(by_kind[Kind::Hot]), "ms"};
    out.layers["serve.stored_p50_ms"] = {median(by_kind[Kind::Stored]), "ms"};
    out.layers["serve.fresh_p50_ms"] = {median(by_kind[Kind::Fresh]), "ms"};
    out.layers["serve.latency_samples"] = out.info["latency_samples"];
    out.layers["serve.latency_beyond_p99"] = out.info["latency_beyond_p99"];
    const serve::StatsSnapshot &st = log.stats;
    out.layers["serve.lru_hit_frac"] = {
        st.requests_served
            ? double(st.response_lru_hits) / double(st.requests_served)
            : 0.0,
        "ratio"};
    out.layers["serve.cache_hits"] = {double(st.cache_hits), "count"};
    out.layers["serve.dedup_hits"] = {double(st.dedup_hits), "count"};
    out.layers["serve.rejected_overloaded"] = {double(st.rejected_overloaded),
                                               "count"};

    // The daemon's per-request protocol work, timed from outside: wire
    // JSON -> ExperimentRequest, and SuiteOutcome -> response bytes.
    std::vector<double> decode_us, render_us, serialize_ns;
    for (std::size_t i = 0; i < 200 && i < log.planned.size(); ++i) {
        const std::string json = request_json(log.planned[i].benchmark,
                                              log.planned[i].instructions);
        ScopedSpan span(tracer, "serve.decode", -1, i);
        const auto begun = Clock::now();
        (void)decode(json);
        decode_us.push_back(seconds_since(begun) * 1e6);
    }
    const core::ExperimentRequest request =
        decode(request_json(log.planned.front().benchmark, hot));
    for (std::size_t i = 0; i < 200; ++i) {
        core::SuiteOutcome suite;
        suite.slots.emplace_back(hot_results[i % hot_results.size()]);
        ScopedSpan span(tracer, "serve.render", -1, i);
        const auto begun = Clock::now();
        (void)serve::render_run_response(suite, request, i);
        render_us.push_back(seconds_since(begun) * 1e6);
    }
    for (std::size_t i = 0; i < 50; ++i) {
        ScopedSpan span(tracer, "core.serialize_result", -1, i);
        const auto begun = Clock::now();
        (void)core::serialize_result(hot_results[i % hot_results.size()]);
        serialize_ns.push_back(seconds_since(begun) * 1e9);
    }
    out.layers["serve.decode_us"] = {median(decode_us), "us"};
    out.layers["serve.render_us"] = {median(render_us), "us"};
    out.layers["core.serialize_ms"] = {median(serialize_ns) / 1e6, "ms"};
    out.layers["artifact_cache.store_ms"] = {median(log.store_ms), "ms"};
    out.layers["artifact_cache.load_ms"] = {median(log.load_ms), "ms"};
    out.layers["artifact_cache.entry_kb"] = {log.entry_kb, "KiB"};

    // Single-core ledger at the hot/fresh budget, and the simulated
    // statistics of the hot set.
    core::ExperimentConfig config = request.config;
    config.instructions = hot;
    Ledger staged(workload::suite_names(), config);
    CpuPlacement placement;
    Metrics ledger = staged.summarize(
        staged.rounds(options.seconds / 4, tracer, out.outcome, placement));
    for (const char *key :
         {"workload.ns_per_instr", "cpu.ns_per_instr", "sim.ns_per_access",
          "interval.ns_per_access", "prefetch.ns_per_access",
          "core.listener_ns_per_instr"})
        out.layers[key] = ledger[key];
    std::vector<const core::ExperimentResult *> hot_set;
    for (const auto &r : hot_results)
        hot_set.push_back(&r);
    Metrics counts = count_metrics(hot_set);
    out.layers.insert(counts.begin(), counts.end());
}

} // namespace leakbench
