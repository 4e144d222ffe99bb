/**
 * @file
 * Implementation of the leakboundd shard supervisor: fork/exec-free
 * shard spawning, heartbeat + health liveness, capped-exponential
 * restarts, the crash-loop circuit breaker, drain fan-out, and the
 * control plane (ping / fleet health / aggregated stats).
 */

#include "serve/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace leakbound::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
ms_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Human description of a waitpid status ("exit 1", "signal 9"). */
std::string
describe_exit(int wait_status)
{
    if (WIFEXITED(wait_status))
        return "exit " + std::to_string(WEXITSTATUS(wait_status));
    if (WIFSIGNALED(wait_status))
        return "signal " + std::to_string(WTERMSIG(wait_status));
    return "status " + std::to_string(wait_status);
}

const char *
state_name(int state)
{
    switch (state) {
      case 0: return "running";
      case 1: return "backoff";
      case 2: return "failed";
    }
    return "unknown";
}

/**
 * The child side of spawn(): build this shard's Server from the
 * template and serve until drained.  Runs in a fresh fork with the
 * supervisor's listeners closed; never returns to the caller's frame
 * logic (the caller _Exits with the returned code).
 */
int
run_shard_process(const SupervisorConfig &config, unsigned index,
                  int heartbeat_fd)
{
    ServerConfig shard = config.shard;
    if (!shard.unix_path.empty())
        shard.unix_path += "." + std::to_string(index);
    if (shard.listen_tcp) {
        shard.tcp_port =
            static_cast<std::uint16_t>(shard.tcp_port + 1 + index);
    }
    shard.shard_index = static_cast<int>(index);
    shard.heartbeat_fd = heartbeat_fd;

    Server server(std::move(shard));
    if (util::Status bound = server.start(); !bound.ok()) {
        util::warn("shard ", index, " cannot bind: ", bound.to_string());
        return 1;
    }
    if (util::Status served = server.serve(); !served.ok()) {
        util::warn("shard ", index, " event loop failed: ",
                   served.to_string());
        return 1;
    }
    // A SIGTERM-triggered drain is the supervisor asking nicely; a
    // clean serve() return is exit 0 regardless of what signal caused it.
    return 0;
}

/** u64 StatsSnapshot fields, for sum-merging shard /stats replies. */
struct U64Field
{
    const char *key;
    std::uint64_t StatsSnapshot::*member;
};

constexpr U64Field kU64Fields[] = {
    {"requests_served", &StatsSnapshot::requests_served},
    {"dedup_hits", &StatsSnapshot::dedup_hits},
    {"response_lru_hits", &StatsSnapshot::response_lru_hits},
    {"response_lru_evictions", &StatsSnapshot::response_lru_evictions},
    {"response_lru_entries", &StatsSnapshot::response_lru_entries},
    {"response_lru_bytes", &StatsSnapshot::response_lru_bytes},
    {"cache_hits", &StatsSnapshot::cache_hits},
    {"sim_runs", &StatsSnapshot::sim_runs},
    {"rejected_overloaded", &StatsSnapshot::rejected_overloaded},
    {"rejected_deadline", &StatsSnapshot::rejected_deadline},
    {"rejected_shutting_down", &StatsSnapshot::rejected_shutting_down},
    {"protocol_errors", &StatsSnapshot::protocol_errors},
    {"sessions_accepted", &StatsSnapshot::sessions_accepted},
    {"open_connections", &StatsSnapshot::open_connections},
    {"queue_depth", &StatsSnapshot::queue_depth},
    {"running", &StatsSnapshot::running},
    {"locks_broken", &StatsSnapshot::locks_broken},
};

} // namespace

Supervisor::Supervisor(SupervisorConfig config)
    : config_(std::move(config)), jitter_(config_.jitter_seed)
{
}

Supervisor::~Supervisor()
{
    // Covers start()-without-run() lifetimes (tests, failed startup):
    // never leak a shard process or a zombie.
    kill_everything();
    if (!config_.shard.unix_path.empty())
        std::remove(config_.shard.unix_path.c_str());
}

Endpoint
Supervisor::base_endpoint() const
{
    Endpoint base;
    base.unix_path = config_.shard.unix_path;
    base.tcp_host = config_.shard.tcp_host;
    base.tcp_port = config_.shard.listen_tcp ? config_.shard.tcp_port : 0;
    return base;
}

util::Status
Supervisor::start()
{
    if (config_.shards == 0) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "a fleet needs at least one shard");
    }
    if (config_.shard.unix_path.empty() && !config_.shard.listen_tcp) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "no listener configured: need a socket "
                            "path or a TCP port");
    }
    if (config_.shard.listen_tcp && config_.shard.tcp_port == 0) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "sharded TCP needs an explicit base port: "
                            "shard i listens on base + 1 + i, so a "
                            "kernel-assigned base cannot name them");
    }

    if (!config_.shard.unix_path.empty()) {
        auto listener = util::net::listen_unix(config_.shard.unix_path);
        if (!listener)
            return listener.status();
        control_unix_ = listener.take();
        if (util::Status made = util::net::set_nonblocking(control_unix_);
            !made.ok())
            return made;
    }
    if (config_.shard.listen_tcp) {
        auto listener = util::net::listen_tcp(config_.shard.tcp_host,
                                              config_.shard.tcp_port);
        if (!listener)
            return listener.status();
        control_tcp_ = listener.take();
        if (util::Status made = util::net::set_nonblocking(control_tcp_);
            !made.ok())
            return made;
    }

    started_at_ = Clock::now();
    shards_.resize(config_.shards);
    for (unsigned i = 0; i < config_.shards; ++i) {
        shards_[i].index = i;
        if (util::Status spawned = spawn(shards_[i]); !spawned.ok())
            return spawned;
    }
    started_ = true;
    return util::Status();
}

util::Status
Supervisor::spawn(Shard &shard)
{
    int pipe_fds[2];
    // Non-blocking on both ends: the shard's pulse write must never
    // stall its event loop, and the supervisor's drain read must never
    // stall supervision.  CLOEXEC is hygiene for any future exec.
    if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
        return util::Status(util::ErrorKind::IoError,
                            std::string("heartbeat pipe failed: ") +
                                std::strerror(errno));
    }

    // fork() duplicates stdio buffers; flush so a buffered line is
    // never printed twice.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int saved = errno;
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        return util::Status(util::ErrorKind::IoError,
                            std::string("fork failed: ") +
                                std::strerror(saved));
    }
    if (pid == 0) {
        // ---- shard child ----
        ::close(pipe_fds[0]);
        control_unix_.close();
        control_tcp_.close();
        for (Shard &other : shards_) {
            if (other.heartbeat_fd >= 0) {
                ::close(other.heartbeat_fd);
                other.heartbeat_fd = -1;
            }
        }
        // A SIGTERM the supervisor already absorbed must not read as
        // "drain immediately" in a shard born after it.
        util::clear_interrupt();
        const int code =
            run_shard_process(config_, shard.index, pipe_fds[1]);
        // _Exit: the Server destructor already ran inside
        // run_shard_process; atexit handlers and stdio flushes belong
        // to the parent's lifetime, not this fork's.
        std::_Exit(code);
    }

    // ---- supervisor parent ----
    ::close(pipe_fds[1]);
    const auto now = Clock::now();
    shard.pid = pid;
    shard.heartbeat_fd = pipe_fds[0];
    shard.state = ShardState::Running;
    shard.started_at = now;
    shard.last_heartbeat = now;
    shard.health_failures = 0;
    if (config_.health_interval_ms > 0) {
        // Staggered first probe so N shards are not probed in one tick.
        shard.next_health_at =
            now + std::chrono::milliseconds(
                      config_.health_interval_ms +
                      static_cast<int>(jitter_.next_below(
                          static_cast<std::uint64_t>(
                              config_.health_interval_ms) +
                          1)));
    }
    return util::Status();
}

util::Status
Supervisor::run()
{
    if (!started_) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "run() before start()");
    }
    while (!util::interrupt_requested()) {
        poll_once();
        drain_heartbeats();
        reap();
        if (tripped_) {
            const std::string report =
                render_crash_report(shards_[tripped_shard_]);
            util::warn("crash-loop breaker tripped on shard ",
                       tripped_shard_, "; tearing the fleet down");
            kill_everything();
            return util::Status(util::ErrorKind::CrashLoop, report);
        }
        check_shards();
        chaos_probe();
        restart_due();
        handle_control(control_unix_);
        handle_control(control_tcp_);
    }
    return drain_fleet();
}

void
Supervisor::poll_once()
{
    // The poll is a tick-bounded sleep that ends early on any control
    // connection or heartbeat pulse; the work all happens afterwards
    // in the nonblocking drain/accept passes.
    std::vector<pollfd> fds;
    fds.reserve(shards_.size() + 2);
    if (control_unix_.valid())
        fds.push_back({control_unix_.fd(), POLLIN, 0});
    if (control_tcp_.valid())
        fds.push_back({control_tcp_.fd(), POLLIN, 0});
    for (const Shard &shard : shards_)
        if (shard.heartbeat_fd >= 0)
            fds.push_back({shard.heartbeat_fd, POLLIN, 0});
    (void)::poll(fds.data(), fds.size(),
                 std::max(config_.tick_ms, 1));
}

void
Supervisor::drain_heartbeats()
{
    char pulses[256];
    for (Shard &shard : shards_) {
        if (shard.heartbeat_fd < 0)
            continue;
        bool beat = false;
        for (;;) {
            const ssize_t n =
                ::read(shard.heartbeat_fd, pulses, sizeof(pulses));
            if (n > 0) {
                beat = true;
                continue;
            }
            // 0 = write end closed (death; reap() owns that), -1 with
            // EAGAIN = drained.  Either way this pass is done.
            break;
        }
        if (beat)
            shard.last_heartbeat = Clock::now();
    }
}

void
Supervisor::reap()
{
    for (;;) {
        int wait_status = 0;
        const pid_t pid = ::waitpid(-1, &wait_status, WNOHANG);
        if (pid <= 0)
            return;
        for (Shard &shard : shards_) {
            if (shard.pid == pid) {
                on_death(shard, wait_status);
                break;
            }
        }
    }
}

void
Supervisor::on_death(Shard &shard, int wait_status)
{
    if (shard.heartbeat_fd >= 0) {
        ::close(shard.heartbeat_fd);
        shard.heartbeat_fd = -1;
    }
    const auto now = Clock::now();
    const double uptime_ms = ms_between(shard.started_at, now);
    shard.pid = -1;
    shard.last_exit_status = wait_status;

    // Crash-loop window: prune, record, judge.
    const auto window_start =
        now - std::chrono::seconds(std::max(config_.restart_window_s, 1));
    while (!shard.deaths.empty() && shard.deaths.front() < window_start)
        shard.deaths.pop_front();
    shard.deaths.push_back(now);
    if (shard.deaths.size() > config_.restart_limit) {
        shard.state = ShardState::Failed;
        tripped_ = true;
        tripped_shard_ = shard.index;
        return;
    }

    // Backoff ladder, PR 4 shape: reset once an incarnation outlived
    // the cap (it was healthy; this death is fresh news), else climb.
    if (uptime_ms >
        static_cast<double>(std::max(config_.restart_backoff_cap_ms, 1)))
        shard.backoff_level = 0;
    const std::uint64_t initial = static_cast<std::uint64_t>(
        std::max(config_.restart_backoff_initial_ms, 1));
    const std::uint64_t cap = static_cast<std::uint64_t>(
        std::max(config_.restart_backoff_cap_ms, 1));
    const std::uint64_t base =
        std::min(initial << std::min(shard.backoff_level, 20u), cap);
    shard.backoff_level = std::min(shard.backoff_level + 1, 20u);
    const std::uint64_t delay_ms =
        base + jitter_.next_below(base / 2 + 1);

    shard.state = ShardState::Backoff;
    shard.restart_at = now + std::chrono::milliseconds(delay_ms);
    util::warn("shard ", shard.index, " died (",
               describe_exit(wait_status), ") after ",
               static_cast<std::uint64_t>(uptime_ms),
               " ms; restarting in ", delay_ms, " ms");
}

void
Supervisor::check_shards()
{
    const auto now = Clock::now();
    for (Shard &shard : shards_) {
        if (shard.state != ShardState::Running || shard.pid <= 0)
            continue;
        if (config_.heartbeat_timeout_ms > 0 &&
            ms_between(shard.last_heartbeat, now) >
                static_cast<double>(config_.heartbeat_timeout_ms)) {
            ++counters_.heartbeat_timeouts;
            ++counters_.wedge_kills;
            util::warn("shard ", shard.index, " (pid ", shard.pid,
                       ") went silent for over ",
                       config_.heartbeat_timeout_ms,
                       " ms; SIGKILLing the wedged process");
            ::kill(shard.pid, SIGKILL);
            // reap() sees the death next tick and schedules the restart.
            continue;
        }
        if (config_.health_interval_ms > 0 && now >= shard.next_health_at) {
            shard.next_health_at =
                now +
                std::chrono::milliseconds(config_.health_interval_ms);
            if (probe_health(shard)) {
                shard.health_failures = 0;
            } else {
                ++counters_.health_failures;
                if (++shard.health_failures >=
                    std::max(config_.health_failure_limit, 1u)) {
                    ++counters_.wedge_kills;
                    util::warn("shard ", shard.index, " (pid ",
                               shard.pid, ") failed ",
                               shard.health_failures,
                               " consecutive health probes; "
                               "SIGKILLing the wedged process");
                    ::kill(shard.pid, SIGKILL);
                }
            }
        }
    }
}

bool
Supervisor::probe_health(Shard &shard)
{
    auto socket =
        connect_endpoint(shard_endpoint(base_endpoint(), shard.index));
    if (!socket)
        return false;
    if (util::Status sent =
            send_frame(socket.value(), build_health_request(),
                       config_.shard.max_frame_bytes);
        !sent.ok())
        return false;
    auto frame = recv_frame_deadline(socket.value(),
                                     config_.shard.max_frame_bytes,
                                     std::max(config_.health_timeout_ms, 1));
    if (!frame)
        return false;
    auto parsed = util::json_parse(frame.value());
    if (!parsed || !parsed.value().is_object())
        return false;
    const util::JsonValue *status = parsed.value().find("status");
    return status != nullptr && status->is_string() &&
           status->string_value() == "ok";
}

void
Supervisor::chaos_probe()
{
    if (!util::fault::kEnabled)
        return;
    if (!util::fault::should_fail(util::fault::Site::KillShard))
        return;
    // Round-robin over live shards so repeated firings spread the
    // carnage deterministically.
    for (unsigned k = 0; k < shards_.size(); ++k) {
        Shard &shard = shards_[(chaos_cursor_ + k) %
                               static_cast<unsigned>(shards_.size())];
        if (shard.state == ShardState::Running && shard.pid > 0) {
            chaos_cursor_ = (shard.index + 1) %
                            static_cast<unsigned>(shards_.size());
            ++counters_.chaos_kills;
            util::warn("chaos: kill_shard seam SIGKILLs shard ",
                       shard.index, " (pid ", shard.pid, ")");
            ::kill(shard.pid, SIGKILL);
            return;
        }
    }
}

void
Supervisor::restart_due()
{
    const auto now = Clock::now();
    for (Shard &shard : shards_) {
        if (shard.state != ShardState::Backoff || now < shard.restart_at)
            continue;
        if (util::Status spawned = spawn(shard); !spawned.ok()) {
            // Treat a failed fork like a crash: back off and retry.
            util::warn("cannot respawn shard ", shard.index, ": ",
                       spawned.to_string());
            shard.restart_at =
                now + std::chrono::milliseconds(static_cast<std::uint64_t>(
                          std::max(config_.restart_backoff_cap_ms, 1)));
            continue;
        }
        ++shard.restarts;
        ++counters_.restarts_total;
        util::warn("shard ", shard.index, " restarted (pid ", shard.pid,
                   ", restart #", shard.restarts, ")");
    }
}

void
Supervisor::handle_control(const util::net::Socket &listener)
{
    if (!listener.valid())
        return;
    for (;;) {
        auto accepted = util::net::try_accept(listener);
        if (!accepted) {
            util::warn("control accept failed: ",
                       accepted.status().to_string());
            return;
        }
        if (!accepted.value().valid())
            return; // nothing pending
        util::net::Socket socket = accepted.take();
        // One bounded request/response exchange per connection.  The
        // short deadline caps how long a silent client can stall
        // supervision (heartbeats buffer in their pipes meanwhile).
        auto frame = recv_frame_deadline(
            socket, config_.shard.max_frame_bytes, 250);
        if (!frame)
            continue;
        const std::string reply = control_reply(frame.value());
        (void)send_frame(socket, reply, config_.shard.max_frame_bytes);
    }
}

std::string
Supervisor::control_reply(const std::string &payload)
{
    auto parsed = util::json_parse(payload);
    if (!parsed)
        return render_error(parsed.status());
    if (!parsed.value().is_object()) {
        return render_error(
            util::Status(util::ErrorKind::InvalidArgument,
                         "request must be a JSON object"));
    }
    const util::JsonValue *type = parsed.value().find("type");
    if (type == nullptr || !type->is_string()) {
        return render_error(
            util::Status(util::ErrorKind::InvalidArgument,
                         "request needs a string \"type\" member"));
    }
    const std::string &kind = type->string_value();
    if (kind == "ping")
        return render_pong();
    if (kind == "health")
        return render_fleet_health();
    if (kind == "stats")
        return render_fleet_stats();
    if (kind == "run") {
        return render_error(util::Status(
            util::ErrorKind::InvalidArgument,
            "this is the supervisor control endpoint; run requests go "
            "to the shard endpoints (unix \"<base>.<i>\", tcp base "
            "port + 1 + i) — use the client's --shards routing"));
    }
    return render_error(
        util::Status(util::ErrorKind::InvalidArgument,
                     "unknown request type \"" + kind + "\""));
}

std::string
Supervisor::render_fleet_health() const
{
    const auto now = Clock::now();
    unsigned live = 0;
    unsigned failed = 0;
    for (const Shard &shard : shards_) {
        if (shard.state == ShardState::Running)
            ++live;
        else if (shard.state == ShardState::Failed)
            ++failed;
    }
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("health");
    w.key("role").value("supervisor");
    w.key("pid").value(static_cast<std::int64_t>(::getpid()));
    w.key("shards").value(static_cast<std::uint64_t>(shards_.size()));
    w.key("shards_live").value(static_cast<std::uint64_t>(live));
    w.key("shards_failed").value(static_cast<std::uint64_t>(failed));
    w.key("restarts_total").value(counters_.restarts_total);
    w.key("uptime_seconds")
        .value(std::chrono::duration<double>(now - started_at_).count());
    w.key("shard_details").begin_array();
    for (const Shard &shard : shards_) {
        w.begin_object();
        w.key("index").value(static_cast<std::uint64_t>(shard.index));
        w.key("pid").value(static_cast<std::int64_t>(shard.pid));
        w.key("state").value(
            state_name(static_cast<int>(shard.state)));
        w.key("restarts").value(shard.restarts);
        w.key("heartbeat_age_ms")
            .value(shard.state == ShardState::Running
                       ? ms_between(shard.last_heartbeat, now)
                       : -1.0);
        w.key("last_exit").value(describe_exit(shard.last_exit_status));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

std::string
Supervisor::render_fleet_stats()
{
    // Fan out to every live shard, sum the counters, max the latency
    // quantiles (a fleet's p99 is at least its worst shard's).
    StatsSnapshot merged;
    unsigned answered = 0;
    for (Shard &shard : shards_) {
        if (shard.state != ShardState::Running)
            continue;
        auto socket = connect_endpoint(
            shard_endpoint(base_endpoint(), shard.index));
        util::Expected<std::string> frame =
            util::Status(util::ErrorKind::IoError, "unreachable");
        if (socket &&
            send_frame(socket.value(), build_stats_request(),
                       config_.shard.max_frame_bytes)
                .ok()) {
            frame = recv_frame_deadline(
                socket.value(), config_.shard.max_frame_bytes,
                std::max(config_.health_timeout_ms, 1));
        }
        if (!frame) {
            ++counters_.stats_errors;
            continue;
        }
        auto parsed = util::json_parse(frame.value());
        if (!parsed || !parsed.value().is_object()) {
            ++counters_.stats_errors;
            continue;
        }
        const util::JsonValue &doc = parsed.value();
        for (const U64Field &field : kU64Fields) {
            const util::JsonValue *node = doc.find(field.key);
            if (node != nullptr && node->is_u64())
                merged.*(field.member) += node->u64_value();
        }
        for (const char *key : {"latency_p50_ms", "latency_p99_ms"}) {
            const util::JsonValue *node = doc.find(key);
            if (node == nullptr || !node->is_number())
                continue;
            double StatsSnapshot::*target =
                std::string_view(key) == "latency_p50_ms"
                    ? &StatsSnapshot::latency_p50_ms
                    : &StatsSnapshot::latency_p99_ms;
            merged.*target =
                std::max(merged.*target, node->number_value());
        }
        ++answered;
    }
    merged.uptime_seconds =
        std::chrono::duration<double>(Clock::now() - started_at_)
            .count();

    unsigned live = 0;
    for (const Shard &shard : shards_)
        if (shard.state == ShardState::Running)
            ++live;

    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("ok");
    w.key("type").value("stats");
    write_stats_fields(w, merged);
    w.key("fleet").begin_object();
    w.key("shards").value(static_cast<std::uint64_t>(shards_.size()));
    w.key("shards_live").value(static_cast<std::uint64_t>(live));
    w.key("shards_answered").value(static_cast<std::uint64_t>(answered));
    w.key("restarts_total").value(counters_.restarts_total);
    w.key("heartbeat_timeouts").value(counters_.heartbeat_timeouts);
    w.key("health_failures").value(counters_.health_failures);
    w.key("wedge_kills").value(counters_.wedge_kills);
    w.key("chaos_kills").value(counters_.chaos_kills);
    w.key("stats_errors").value(counters_.stats_errors);
    w.end_object();
    w.end_object();
    return w.str();
}

std::string
Supervisor::render_crash_report(const Shard &shard) const
{
    util::JsonWriter w;
    w.begin_object();
    w.key("status").value("error");
    w.key("kind").value(
        util::error_kind_name(util::ErrorKind::CrashLoop));
    w.key("message").value(
        "shard " + std::to_string(shard.index) + " died " +
        std::to_string(shard.deaths.size()) + " times inside " +
        std::to_string(config_.restart_window_s) +
        " s (limit " + std::to_string(config_.restart_limit) +
        " restarts); last death: " +
        describe_exit(shard.last_exit_status));
    w.key("shard").value(static_cast<std::uint64_t>(shard.index));
    w.key("deaths_in_window")
        .value(static_cast<std::uint64_t>(shard.deaths.size()));
    w.key("window_seconds")
        .value(static_cast<std::uint64_t>(
            std::max(config_.restart_window_s, 1)));
    w.key("restart_limit")
        .value(static_cast<std::uint64_t>(config_.restart_limit));
    w.key("restarts_total").value(counters_.restarts_total);
    w.key("last_exit").value(describe_exit(shard.last_exit_status));
    w.end_object();
    return w.str();
}

util::Status
Supervisor::drain_fleet()
{
    unsigned live = 0;
    for (Shard &shard : shards_) {
        if (shard.pid > 0) {
            ++live;
            ::kill(shard.pid, SIGTERM);
        }
    }
    util::warn("supervisor draining: SIGTERM fanned out to ", live,
               " shard(s), deadline ", config_.drain_deadline_ms, " ms");

    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(std::max(config_.drain_deadline_ms, 0));
    auto any_alive = [&] {
        for (const Shard &shard : shards_)
            if (shard.pid > 0)
                return true;
        return false;
    };
    bool dirty = false;
    while (any_alive() && Clock::now() < deadline) {
        for (Shard &shard : shards_) {
            if (shard.pid <= 0)
                continue;
            int wait_status = 0;
            const pid_t pid =
                ::waitpid(shard.pid, &wait_status, WNOHANG);
            if (pid == shard.pid) {
                if (!WIFEXITED(wait_status) ||
                    WEXITSTATUS(wait_status) != 0) {
                    dirty = true;
                    util::warn("shard ", shard.index,
                               " drained uncleanly (",
                               describe_exit(wait_status), ")");
                }
                shard.pid = -1;
                if (shard.heartbeat_fd >= 0) {
                    ::close(shard.heartbeat_fd);
                    shard.heartbeat_fd = -1;
                }
            }
        }
        if (any_alive())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    unsigned killed = 0;
    for (Shard &shard : shards_) {
        if (shard.pid <= 0)
            continue;
        ++killed;
        util::warn("shard ", shard.index, " (pid ", shard.pid,
                   ") missed the drain deadline; SIGKILL");
        ::kill(shard.pid, SIGKILL);
        (void)::waitpid(shard.pid, nullptr, 0);
        shard.pid = -1;
        if (shard.heartbeat_fd >= 0) {
            ::close(shard.heartbeat_fd);
            shard.heartbeat_fd = -1;
        }
    }
    control_unix_.close();
    control_tcp_.close();
    if (!config_.shard.unix_path.empty())
        std::remove(config_.shard.unix_path.c_str());
    if (killed > 0) {
        return util::Status(
            util::ErrorKind::IoError,
            std::to_string(killed) +
                " shard(s) missed the drain deadline and were "
                "SIGKILLed");
    }
    if (dirty) {
        return util::Status(util::ErrorKind::IoError,
                            "at least one shard drained uncleanly");
    }
    return util::Status();
}

void
Supervisor::kill_everything()
{
    for (Shard &shard : shards_) {
        if (shard.pid > 0) {
            ::kill(shard.pid, SIGKILL);
            (void)::waitpid(shard.pid, nullptr, 0);
            shard.pid = -1;
        }
        if (shard.heartbeat_fd >= 0) {
            ::close(shard.heartbeat_fd);
            shard.heartbeat_fd = -1;
        }
    }
    control_unix_.close();
    control_tcp_.close();
}

} // namespace leakbound::serve
