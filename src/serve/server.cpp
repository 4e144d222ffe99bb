/**
 * @file
 * Implementation of the leakboundd server: the epoll event loops,
 * connection dealing, per-connection frame state machines, scheduler
 * handoff, and drain.
 */

#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include <unistd.h>

#include "util/interrupt.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace leakbound::serve {

namespace {

/** Epoll tags below the connection-id floor. */
constexpr std::uint64_t kUnixTag = 1;
constexpr std::uint64_t kTcpTag = 2;
constexpr std::uint64_t kWakeupTag = 3;

/** Compact the inbuf once the parsed prefix crosses this size. */
constexpr std::size_t kInbufCompactThreshold = 64u << 10;

/** Event-loop wait ceiling (drain/interrupt latency upper bound). */
constexpr int kPollIntervalMs = 100;

/** Grace period for flushing answered connections on drain. */
constexpr int kDrainFlushMs = 2'000;

} // namespace

thread_local const Server::Loop *Server::running_loop_ = nullptr;

Server::Server(ServerConfig config) : config_(std::move(config))
{
    scheduler_ = std::make_unique<Scheduler>(config_.scheduler);
    const unsigned loops = std::max(config_.scheduler.workers, 1u);
    for (unsigned i = 0; i < loops; ++i)
        loops_.push_back(std::make_unique<Loop>());
    started_at_ = std::chrono::steady_clock::now();
}

Server::~Server()
{
    // serve() normally runs the full drain; this covers start()-only
    // lifetimes (tests that never serve).  The scheduler drains before
    // the loops its callbacks point into are destroyed.
    scheduler_->drain();
    if (!config_.unix_path.empty())
        std::remove(config_.unix_path.c_str());
}

util::Status
Server::start()
{
    if (config_.unix_path.empty() && !config_.listen_tcp) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "no listener configured: need a socket "
                            "path or a TCP port");
    }
    for (const std::unique_ptr<Loop> &loop : loops_) {
        if (!loop->epoll.valid())
            return util::Status(util::ErrorKind::IoError,
                                "cannot create an epoll instance");
        if (!loop->wakeup.valid())
            return util::Status(util::ErrorKind::IoError,
                                "cannot create a wakeup eventfd");
    }
    if (!config_.unix_path.empty()) {
        auto listener = util::net::listen_unix(config_.unix_path);
        if (!listener)
            return listener.status();
        unix_listener_ = listener.take();
        if (util::Status made =
                util::net::set_nonblocking(unix_listener_);
            !made.ok())
            return made;
    }
    if (config_.listen_tcp) {
        auto listener =
            util::net::listen_tcp(config_.tcp_host, config_.tcp_port);
        if (!listener)
            return listener.status();
        tcp_listener_ = listener.take();
        if (util::Status made =
                util::net::set_nonblocking(tcp_listener_);
            !made.ok())
            return made;
        tcp_port_ = util::net::local_port(tcp_listener_);
    }
    started_ = true;
    return util::Status();
}

void
Server::request_drain()
{
    drain_requested_.store(true);
    for (const std::unique_ptr<Loop> &loop : loops_)
        loop->wakeup.signal();
}

void
Server::on_every_loop(const std::function<void(Loop &)> &body)
{
    std::vector<std::thread> threads;
    threads.reserve(loops_.size() - 1);
    for (std::size_t i = 1; i < loops_.size(); ++i)
        threads.emplace_back([&body, loop = loops_[i].get()] {
            body(*loop);
        });
    body(*loops_.front());
    for (std::thread &thread : threads)
        thread.join();
}

util::Status
Server::serve()
{
    if (!started_) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "serve() before start()");
    }

    for (const std::unique_ptr<Loop> &loop : loops_) {
        // Every loop polls the listeners; whichever wakes accepts.
        if (unix_listener_.valid()) {
            if (util::Status added = loop->epoll.add(unix_listener_.fd(),
                                                     kUnixTag, true, false);
                !added.ok())
                return added;
        }
        if (tcp_listener_.valid()) {
            if (util::Status added = loop->epoll.add(tcp_listener_.fd(),
                                                     kTcpTag, true, false);
                !added.ok())
                return added;
        }
        // Level-triggered on purpose: a signal() arriving between
        // consume() and the next wait must re-report, and the loop
        // always consumes.
        if (util::Status added =
                loop->epoll.add(loop->wakeup.fd(), kWakeupTag, true,
                                false, /*edge_triggered=*/false);
            !added.ok())
            return added;
    }

    util::Status verdict;
    std::mutex verdict_mutex;
    on_every_loop([&](Loop &loop) {
        util::Status ran = run_loop(loop);
        std::lock_guard<std::mutex> lock(verdict_mutex);
        if (verdict.ok())
            verdict = std::move(ran);
    });

    // Drain, once every loop has stopped: no new connections;
    // in-flight experiments finish and their completions land in the
    // owner loops' inboxes; queued experiments fail typed; then every
    // loop gets the same bounded chance to flush its answered
    // connections.
    unix_listener_.close();
    tcp_listener_.close();
    scheduler_->drain();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kDrainFlushMs);
    on_every_loop([&](Loop &loop) {
        drain_inbox(loop);
        drain_flush(loop, deadline);
        loop.connections.clear();
        loop.live.store(0);
    });
    live_connections_.store(0);
    if (!config_.unix_path.empty())
        std::remove(config_.unix_path.c_str());
    return verdict;
}

util::Status
Server::run_loop(Loop &loop)
{
    running_loop_ = &loop;
    util::Status verdict;
    while (!drain_requested_.load() && !util::interrupt_requested()) {
        auto waited = loop.epoll.wait(loop.events, kPollIntervalMs);
        if (!waited) {
            verdict = util::Status(util::ErrorKind::IoError,
                                   "epoll_wait on an event loop failed: " +
                                       waited.status().message());
            break;
        }
        for (const util::net::EpollEvent &event : loop.events) {
            if (event.tag == kUnixTag) {
                accept_pending(loop, unix_listener_);
                continue;
            }
            if (event.tag == kTcpTag) {
                accept_pending(loop, tcp_listener_);
                continue;
            }
            if (event.tag == kWakeupTag) {
                loop.wakeup.consume();
                continue;
            }
            auto it = loop.connections.find(event.tag);
            if (it == loop.connections.end())
                continue; // destroyed earlier this batch
            Connection *connection = it->second.get();
            if (event.error) {
                destroy(connection);
                continue;
            }
            if (event.writable)
                flush_writes(connection);
            // Re-find: flush_writes may have destroyed it.
            if (loop.connections.find(event.tag) == loop.connections.end())
                continue;
            if (event.readable || event.hangup)
                handle_readable(connection);
        }
        // Connections dealt here and completions may have been queued
        // by other threads during the wait, or synchronously by
        // dispatch (LRU hits, rejections).
        drain_inbox(loop);
    }
    running_loop_ = nullptr;
    // Whatever stopped this loop (drain, signal, failure) stops them all.
    request_drain();
    return verdict;
}

void
Server::accept_pending(Loop &loop, const util::net::Socket &listener)
{
    if (!listener.valid())
        return;
    // Edge-triggered listener: accept until EAGAIN.
    for (;;) {
        auto accepted = util::net::try_accept(listener);
        if (!accepted) {
            // Transient accept trouble (aborted handshake, fd
            // pressure, the net_accept fault seam): log and keep
            // serving.
            util::warn("accept failed: ", accepted.status().to_string());
            return;
        }
        if (!accepted.value().valid())
            return; // nothing more pending
        Arrival arrival;
        arrival.socket = accepted.take();
        if (util::Status made = util::net::set_nonblocking(arrival.socket);
            !made.ok()) {
            util::warn("cannot make a connection non-blocking: ",
                       made.to_string());
            continue;
        }

        // Admission is one compare-and-swap on the process-wide count,
        // so max_sessions is exact however many loops accept at once.
        std::uint64_t live = live_connections_.load();
        arrival.shed = true;
        while (live < config_.max_sessions) {
            if (live_connections_.compare_exchange_weak(live, live + 1)) {
                arrival.shed = false;
                break;
            }
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++sessions_accepted_;
            if (arrival.shed)
                ++sessions_rejected_;
        }

        // Deal connections to the loops in turn, so they spread evenly
        // whichever loop the kernel woke to accept them.
        Loop &owner = *loops_[dealt_.fetch_add(1) % loops_.size()];
        if (&owner == &loop) {
            adopt(loop, std::move(arrival));
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(owner.inbox_mutex);
            owner.arrivals.push_back(std::move(arrival));
        }
        owner.wakeup.signal();
    }
}

void
Server::adopt(Loop &loop, Arrival arrival)
{
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(arrival.socket);
    connection->loop = &loop;
    connection->id = loop.next_connection_id++;
    connection->shed = arrival.shed;
    Connection *raw = connection.get();
    if (util::Status added =
            loop.epoll.add(raw->socket.fd(), raw->id, true, false);
        !added.ok()) {
        util::warn("cannot register a connection: ", added.to_string());
        if (!raw->shed)
            live_connections_.fetch_sub(1);
        return; // unique_ptr closes the socket
    }
    loop.connections.emplace(raw->id, std::move(connection));

    if (raw->shed) {
        // Shed explicitly: one error frame, then close.  The frame
        // goes through the ordinary queued-write path, so a slow shed
        // peer cannot stall the loop — its partial write just waits
        // for EPOLLOUT like anyone else's.
        raw->close_after_flush = true;
        enqueue_ready(raw,
                      render_error(util::Status(
                          util::ErrorKind::Overloaded,
                          "connection limit reached (" +
                              std::to_string(config_.max_sessions) +
                              "); retry later")));
        flush_writes(raw);
    } else {
        loop.live.fetch_add(1);
    }
}

void
Server::handle_readable(Connection *connection)
{
    char buffer[1 << 16];
    for (;;) {
        auto got = util::net::read_some(connection->socket, buffer,
                                        sizeof(buffer));
        if (!got) {
            // Reset peer or read fault: the stream is gone.
            destroy(connection);
            return;
        }
        const util::net::IoResult &result = got.value();
        if (result.bytes > 0) {
            connection->inbuf.append(buffer, result.bytes);
            continue;
        }
        if (result.closed) {
            connection->peer_closed = true;
            break;
        }
        break; // would_block: drained
    }

    // parse_frames may destroy the connection (protocol desync with
    // nothing flushable); re-find it by id before touching it again.
    Loop &loop = *connection->loop;
    const std::uint64_t id = connection->id;
    parse_frames(connection);
    if (loop.connections.find(id) == loop.connections.end())
        return;

    if (connection->peer_closed) {
        // A cleanly-closed peer cannot send more requests; keep the
        // connection only as long as answered-but-unflushed bytes or
        // outstanding run requests could still be delivered.
        if (connection->replies.empty() &&
            connection->outoff >= connection->outbuf.size()) {
            destroy(connection);
            return;
        }
        connection->close_after_flush = true;
    }
    flush_writes(connection);
}

void
Server::parse_frames(Connection *connection)
{
    Loop &loop = *connection->loop;
    const std::uint64_t id = connection->id;
    for (;;) {
        const std::size_t avail =
            connection->inbuf.size() - connection->inoff;
        if (avail < kFrameHeaderBytes)
            break;
        const util::Expected<std::size_t> size = read_frame_header(
            connection->inbuf.data() + connection->inoff);
        if (!size) {
            // A lying length prefix desyncs the stream: answer typed,
            // then hang up once the answer is flushed.
            note_protocol_error();
            enqueue_ready(connection, render_error(size.status()));
            connection->close_after_flush = true;
            connection->inoff = connection->inbuf.size();
            break;
        }
        if (avail < kFrameHeaderBytes + size.value())
            break; // incomplete frame: wait for more bytes
        const std::string payload = connection->inbuf.substr(
            connection->inoff + kFrameHeaderBytes, size.value());
        connection->inoff += kFrameHeaderBytes + size.value();
        dispatch(connection, payload);
        if (loop.connections.find(id) == loop.connections.end())
            return; // dispatch path destroyed the connection
        if (connection->close_after_flush)
            break; // stop consuming a desynced stream
    }
    if (connection->inoff >= connection->inbuf.size()) {
        connection->inbuf.clear();
        connection->inoff = 0;
    } else if (connection->inoff > kInbufCompactThreshold) {
        connection->inbuf.erase(0, connection->inoff);
        connection->inoff = 0;
    }
}

void
Server::dispatch(Connection *connection, const std::string &payload)
{
    auto parsed = util::json_parse(payload);
    if (!parsed) {
        // Garbage JSON inside an intact frame: the framing is still in
        // sync, so answer the error and keep the connection alive.
        note_protocol_error();
        enqueue_ready(connection, render_error(parsed.status()));
        return;
    }
    const util::JsonValue &request = parsed.value();
    if (!request.is_object()) {
        note_protocol_error();
        enqueue_ready(connection,
                      render_error(util::Status(
                          util::ErrorKind::InvalidArgument,
                          "request must be a JSON object")));
        return;
    }
    const util::JsonValue *type = request.find("type");
    if (type == nullptr || !type->is_string()) {
        note_protocol_error();
        enqueue_ready(connection,
                      render_error(util::Status(
                          util::ErrorKind::InvalidArgument,
                          "request needs a string \"type\" member")));
        return;
    }

    const std::string &kind = type->string_value();
    if (kind == "ping") {
        enqueue_ready(connection, render_pong());
        return;
    }
    if (kind == "stats") {
        enqueue_ready(connection, render_stats(stats()));
        return;
    }
    if (kind == "health") {
        enqueue_ready(connection, render_health(health()));
        return;
    }
    if (kind == "run") {
        auto decoded = core::decode_experiment_request(
            request, config_.max_instructions);
        if (!decoded) {
            note_protocol_error();
            enqueue_ready(connection, render_error(decoded.status()));
            return;
        }
        // Reserve the reply slot in request order, then hand off: the
        // response lands via the completion queue whether the
        // scheduler answers synchronously (LRU hit, rejection) or from
        // a worker minutes later.
        Reply reply;
        reply.seq = connection->next_seq++;
        reply.timed = true;
        reply.begun = std::chrono::steady_clock::now();
        connection->replies.push_back(std::move(reply));
        Loop *owner = connection->loop;
        const std::uint64_t connection_id = connection->id;
        const std::uint64_t seq = connection->replies.back().seq;
        scheduler_->submit_async(
            decoded.take(),
            [this, owner, connection_id,
             seq](std::shared_ptr<const std::string> response) {
                queue_completion(*owner, connection_id, seq,
                                 std::move(response));
            });
        return;
    }

    note_protocol_error();
    enqueue_ready(connection,
                  render_error(util::Status(
                      util::ErrorKind::InvalidArgument,
                      "unknown request type \"" + kind + "\"")));
}

void
Server::enqueue_ready(Connection *connection, std::string frame)
{
    Reply reply;
    reply.seq = connection->next_seq++;
    reply.ready = true;
    reply.frame = std::make_shared<const std::string>(std::move(frame));
    connection->replies.push_back(std::move(reply));
}

void
Server::flush_writes(Connection *connection)
{
    // Promote ready replies (in request order) into the out-buffer.
    while (!connection->replies.empty() &&
           connection->replies.front().ready) {
        Reply reply = std::move(connection->replies.front());
        connection->replies.pop_front();
        const std::string *frame = reply.frame.get();
        std::string oversized;
        if (frame->size() > kDefaultMaxFrameBytes) {
            // The sender must never emit a frame the peer is
            // contractually required to reject.
            oversized = render_error(util::Status(
                util::ErrorKind::InvalidArgument,
                "response of " + std::to_string(frame->size()) +
                    " bytes exceeds the " +
                    std::to_string(kDefaultMaxFrameBytes) +
                    " byte frame cap"));
            frame = &oversized;
        }
        append_frame(connection->outbuf, *frame);
        if (reply.timed) {
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - reply.begun)
                    .count();
            std::lock_guard<std::mutex> lock(mutex_);
            latency_ms_.add(ms);
        }
    }

    while (connection->outoff < connection->outbuf.size()) {
        auto wrote = util::net::write_some(
            connection->socket,
            connection->outbuf.data() + connection->outoff,
            connection->outbuf.size() - connection->outoff);
        if (!wrote) {
            destroy(connection); // dead peer or write fault
            return;
        }
        connection->outoff += wrote.value().bytes;
        if (wrote.value().would_block) {
            // Partial write: park the rest under EPOLLOUT.
            if (!connection->want_write) {
                connection->want_write = true;
                update_write_interest(connection);
            }
            return;
        }
    }
    connection->outbuf.clear();
    connection->outoff = 0;
    if (connection->want_write) {
        connection->want_write = false;
        update_write_interest(connection);
    }
    if (connection->close_after_flush && connection->replies.empty())
        destroy(connection);
}

void
Server::update_write_interest(Connection *connection)
{
    if (util::Status changed = connection->loop->epoll.modify(
            connection->socket.fd(), connection->id, true,
            connection->want_write);
        !changed.ok())
        util::warn("cannot re-arm a connection: ", changed.to_string());
}

void
Server::destroy(Connection *connection)
{
    Loop &loop = *connection->loop;
    if (!connection->shed) {
        live_connections_.fetch_sub(1);
        loop.live.fetch_sub(1);
    }
    // Closing the fd deregisters it from epoll; completions still in
    // flight die against the connection map by id.
    loop.connections.erase(connection->id);
}

void
Server::queue_completion(Loop &loop, std::uint64_t connection_id,
                         std::uint64_t seq,
                         std::shared_ptr<const std::string> response)
{
    {
        std::lock_guard<std::mutex> lock(loop.inbox_mutex);
        loop.completions.push_back(
            PendingCompletion{connection_id, seq, std::move(response)});
    }
    // An answer dispatch gave on the owner loop itself (LRU hit,
    // rejection) is delivered by the drain_inbox ending this batch.
    if (running_loop_ != &loop)
        loop.wakeup.signal();
}

void
Server::drain_inbox(Loop &loop)
{
    std::vector<Arrival> arrivals;
    {
        std::lock_guard<std::mutex> lock(loop.inbox_mutex);
        arrivals.swap(loop.arrivals);
        loop.batch.swap(loop.completions);
    }
    for (Arrival &arrival : arrivals)
        adopt(loop, std::move(arrival));
    // Mark the whole batch ready first, then flush each connection it
    // answered once: N pipelined answers cost one write, not N.
    loop.touched.clear();
    for (PendingCompletion &completion : loop.batch) {
        auto it = loop.connections.find(completion.connection_id);
        if (it == loop.connections.end())
            continue; // the client vanished; the response is moot
        for (Reply &reply : it->second->replies) {
            if (reply.seq == completion.seq) {
                reply.frame = std::move(completion.response);
                reply.ready = true;
                break;
            }
        }
        loop.touched.push_back(completion.connection_id);
    }
    loop.batch.clear();
    std::sort(loop.touched.begin(), loop.touched.end());
    loop.touched.erase(std::unique(loop.touched.begin(), loop.touched.end()),
                       loop.touched.end());
    for (const std::uint64_t id : loop.touched)
        flush_writes(loop.connections.at(id).get());
}

void
Server::drain_flush(Loop &loop,
                    std::chrono::steady_clock::time_point deadline)
{
    // Bounded grace: flush what the peers will take, then cut.  Any
    // connection with nothing pending is closed immediately.
    for (;;) {
        for (auto it = loop.connections.begin();
             it != loop.connections.end();) {
            Connection *connection = it->second.get();
            ++it; // destroy() erases; advance first
            if (connection->replies.empty() &&
                connection->outoff >= connection->outbuf.size())
                destroy(connection);
        }
        if (loop.connections.empty())
            return;
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return;
        const int timeout_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count());
        auto waited = loop.epoll.wait(loop.events, std::min(timeout_ms, 50));
        if (!waited)
            return;
        for (const util::net::EpollEvent &event : loop.events) {
            if (event.tag == kWakeupTag) {
                loop.wakeup.consume(); // else it re-reports every wait
                continue;
            }
            auto found = loop.connections.find(event.tag);
            if (found == loop.connections.end())
                continue;
            if (event.error) {
                destroy(found->second.get());
                continue;
            }
            if (event.writable)
                flush_writes(found->second.get());
        }
    }
}

void
Server::note_protocol_error()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++protocol_errors_;
}

StatsSnapshot
Server::stats() const
{
    const SchedulerCounters counters = scheduler_->counters();
    StatsSnapshot snapshot;
    snapshot.requests_served = counters.served;
    snapshot.dedup_hits = counters.dedup_hits;
    snapshot.response_lru_hits = counters.response_lru_hits;
    snapshot.response_lru_evictions = counters.response_lru_evictions;
    snapshot.response_lru_entries = counters.response_lru_entries;
    snapshot.response_lru_bytes = counters.response_lru_bytes;
    snapshot.cache_hits = counters.cache_hits;
    snapshot.sim_runs = counters.sim_runs;
    snapshot.rejected_overloaded = counters.rejected_overloaded;
    snapshot.rejected_shutting_down = counters.rejected_shutting_down;
    snapshot.queue_depth = counters.queue_depth;
    snapshot.running = counters.running;
    snapshot.open_connections = live_connections_.load();
    for (const std::unique_ptr<Loop> &loop : loops_)
        snapshot.loop_connections.push_back(loop->live.load());
    snapshot.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at_)
            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.rejected_overloaded += sessions_rejected_;
    snapshot.protocol_errors = protocol_errors_;
    snapshot.sessions_accepted = sessions_accepted_;
    snapshot.latency_p50_ms = latency_ms_.p50();
    snapshot.latency_p99_ms = latency_ms_.p99();
    return snapshot;
}

HealthSnapshot
Server::health() const
{
    HealthSnapshot snapshot;
    snapshot.pid = static_cast<std::int64_t>(::getpid());
    snapshot.draining = drain_requested_.load();
    snapshot.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at_)
            .count();
    return snapshot;
}

} // namespace leakbound::serve
