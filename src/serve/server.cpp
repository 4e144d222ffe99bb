/**
 * @file
 * Implementation of the leakboundd server: the epoll event loop,
 * per-connection frame state machines, scheduler handoff, and drain.
 */

#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>

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

void
append_frame_header(std::string &out, std::size_t size)
{
    out.push_back(static_cast<char>(size & 0xff));
    out.push_back(static_cast<char>((size >> 8) & 0xff));
    out.push_back(static_cast<char>((size >> 16) & 0xff));
    out.push_back(static_cast<char>((size >> 24) & 0xff));
}

} // namespace

Server::Server(ServerConfig config) : config_(std::move(config))
{
    scheduler_ = std::make_unique<Scheduler>(config_.scheduler);
    started_at_ = std::chrono::steady_clock::now();
}

Server::~Server()
{
    // serve() normally runs the full drain; this covers start()-only
    // lifetimes (tests that never serve).
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
    if (!epoll_.valid())
        return util::Status(util::ErrorKind::IoError,
                            "cannot create the epoll instance");
    if (!wakeup_.valid())
        return util::Status(util::ErrorKind::IoError,
                            "cannot create the wakeup eventfd");
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

util::Status
Server::serve()
{
    if (!started_) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "serve() before start()");
    }

    if (unix_listener_.valid()) {
        if (util::Status added = epoll_.add(unix_listener_.fd(), kUnixTag,
                                            true, false);
            !added.ok())
            return added;
    }
    if (tcp_listener_.valid()) {
        if (util::Status added = epoll_.add(tcp_listener_.fd(), kTcpTag,
                                            true, false);
            !added.ok())
            return added;
    }
    // Level-triggered on purpose: a signal() arriving between consume()
    // and the next wait must re-report, and the loop always consumes.
    if (util::Status added = epoll_.add(wakeup_.fd(), kWakeupTag, true,
                                        false, /*edge_triggered=*/false);
        !added.ok())
        return added;

    // Birth heartbeat: the supervisor's liveness clock starts from the
    // moment the loop is actually turning, not from fork().
    next_heartbeat_at_ = std::chrono::steady_clock::now();
    emit_heartbeat();

    while (!drain_requested_.load() && !util::interrupt_requested()) {
        emit_heartbeat();
        auto waited = epoll_.wait(events_, config_.poll_interval_ms);
        if (!waited) {
            return util::Status(util::ErrorKind::IoError,
                                "epoll_wait on the event loop failed: " +
                                    waited.status().message());
        }
        for (const util::net::EpollEvent &event : events_) {
            if (event.tag == kUnixTag) {
                accept_pending(unix_listener_);
                continue;
            }
            if (event.tag == kTcpTag) {
                accept_pending(tcp_listener_);
                continue;
            }
            if (event.tag == kWakeupTag) {
                wakeup_.consume();
                continue;
            }
            auto it = connections_.find(event.tag);
            if (it == connections_.end())
                continue; // destroyed earlier this batch
            Connection *connection = it->second.get();
            if (event.error) {
                destroy(connection);
                continue;
            }
            if (event.writable)
                flush_writes(connection);
            // Re-find: flush_writes may have destroyed it.
            if (connections_.find(event.tag) == connections_.end())
                continue;
            if (event.readable || event.hangup)
                handle_readable(connection);
        }
        // Completions may have been queued by workers during the wait
        // or synchronously by dispatch (LRU hits, rejections).
        drain_completions();
    }

    // Drain: no new connections; in-flight experiments finish and
    // their waiters are answered; queued experiments fail typed; then
    // every answered connection gets a bounded chance to be flushed.
    unix_listener_.close();
    tcp_listener_.close();
    scheduler_->drain();
    drain_completions();
    drain_flush();
    connections_.clear();
    live_connections_.store(0);
    if (!config_.unix_path.empty())
        std::remove(config_.unix_path.c_str());
    return util::Status();
}

void
Server::accept_pending(const util::net::Socket &listener)
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
        util::net::Socket socket = accepted.take();
        if (util::Status made = util::net::set_nonblocking(socket);
            !made.ok()) {
            util::warn("cannot make a connection non-blocking: ",
                       made.to_string());
            continue;
        }

        const bool overloaded =
            live_connections_.load() >= config_.max_sessions;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++sessions_accepted_;
            if (overloaded)
                ++sessions_rejected_;
        }

        auto connection = std::make_unique<Connection>();
        connection->socket = std::move(socket);
        connection->id = next_connection_id_++;
        Connection *raw = connection.get();
        if (util::Status added =
                epoll_.add(raw->socket.fd(), raw->id, true, false);
            !added.ok()) {
            util::warn("cannot register a connection: ",
                       added.to_string());
            continue; // unique_ptr closes the socket
        }
        connections_.emplace(raw->id, std::move(connection));

        if (overloaded) {
            // Shed explicitly: one error frame, then close.  The frame
            // goes through the ordinary queued-write path, so a slow
            // shed peer cannot stall the loop — its partial write just
            // waits for EPOLLOUT like anyone else's.
            raw->shed = true;
            raw->close_after_flush = true;
            enqueue_ready(raw,
                          render_error(util::Status(
                              util::ErrorKind::Overloaded,
                              "connection limit reached (" +
                                  std::to_string(config_.max_sessions) +
                                  "); retry later")));
            flush_writes(raw);
        } else {
            live_connections_.fetch_add(1);
        }
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

    parse_frames(connection);
    // parse_frames may have destroyed the connection (protocol desync
    // with nothing flushable); re-find before touching it again.
    auto it = connections_.find(connection->id);
    if (it == connections_.end())
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
    for (;;) {
        const std::size_t avail =
            connection->inbuf.size() - connection->inoff;
        if (avail < kFrameHeaderBytes)
            break;
        const auto *bytes = reinterpret_cast<const unsigned char *>(
            connection->inbuf.data() + connection->inoff);
        const std::uint32_t size =
            static_cast<std::uint32_t>(bytes[0]) |
            (static_cast<std::uint32_t>(bytes[1]) << 8) |
            (static_cast<std::uint32_t>(bytes[2]) << 16) |
            (static_cast<std::uint32_t>(bytes[3]) << 24);
        if (size > config_.max_frame_bytes) {
            // A lying length prefix desyncs the stream: answer typed,
            // then hang up once the answer is flushed.
            note_protocol_error();
            enqueue_ready(connection,
                          render_error(util::Status(
                              util::ErrorKind::CorruptData,
                              "frame length prefix of " +
                                  std::to_string(size) +
                                  " bytes exceeds the " +
                                  std::to_string(config_.max_frame_bytes) +
                                  " byte cap")));
            connection->close_after_flush = true;
            connection->inoff = connection->inbuf.size();
            break;
        }
        if (avail < kFrameHeaderBytes + size)
            break; // incomplete frame: wait for more bytes
        const std::string payload = connection->inbuf.substr(
            connection->inoff + kFrameHeaderBytes, size);
        connection->inoff += kFrameHeaderBytes + size;
        dispatch(connection, payload);
        if (connections_.find(connection->id) == connections_.end())
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
        const std::uint64_t connection_id = connection->id;
        const std::uint64_t seq = connection->replies.back().seq;
        scheduler_->submit_async(
            decoded.take(),
            [this, connection_id,
             seq](std::shared_ptr<const std::string> response) {
                queue_completion(connection_id, seq,
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
Server::enqueue_ready(Connection *connection, std::string frame,
                      bool timed,
                      std::chrono::steady_clock::time_point begun)
{
    Reply reply;
    reply.seq = connection->next_seq++;
    reply.ready = true;
    reply.timed = timed;
    reply.begun = begun;
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
        if (frame->size() > config_.max_frame_bytes) {
            // The sender must never emit a frame the peer is
            // contractually required to reject.
            oversized = render_error(util::Status(
                util::ErrorKind::InvalidArgument,
                "response of " + std::to_string(frame->size()) +
                    " bytes exceeds the " +
                    std::to_string(config_.max_frame_bytes) +
                    " byte frame cap"));
            frame = &oversized;
        }
        append_frame_header(connection->outbuf, frame->size());
        connection->outbuf.append(*frame);
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
    if (util::Status changed =
            epoll_.modify(connection->socket.fd(), connection->id, true,
                          connection->want_write);
        !changed.ok())
        util::warn("cannot re-arm a connection: ", changed.to_string());
}

void
Server::destroy(Connection *connection)
{
    if (!connection->shed)
        live_connections_.fetch_sub(1);
    // Closing the fd deregisters it from epoll; completions still in
    // flight die against the connection map by id.
    connections_.erase(connection->id);
}

void
Server::queue_completion(std::uint64_t connection_id, std::uint64_t seq,
                         std::shared_ptr<const std::string> response)
{
    {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        completions_.push_back(
            PendingCompletion{connection_id, seq, std::move(response)});
    }
    wakeup_.signal();
}

void
Server::drain_completions()
{
    std::deque<PendingCompletion> batch;
    {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        batch.swap(completions_);
    }
    for (PendingCompletion &completion : batch) {
        auto it = connections_.find(completion.connection_id);
        if (it == connections_.end())
            continue; // the client vanished; the response is moot
        Connection *connection = it->second.get();
        for (Reply &reply : connection->replies) {
            if (reply.seq == completion.seq) {
                reply.frame = std::move(completion.response);
                reply.ready = true;
                break;
            }
        }
        flush_writes(connection);
    }
}

void
Server::drain_flush()
{
    // Bounded grace: flush what the peers will take, then cut.  Any
    // connection with nothing pending is closed immediately.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.drain_flush_ms);
    for (;;) {
        for (auto it = connections_.begin(); it != connections_.end();) {
            Connection *connection = it->second.get();
            ++it; // destroy() erases; advance first
            if (connection->replies.empty() &&
                connection->outoff >= connection->outbuf.size())
                destroy(connection);
        }
        if (connections_.empty())
            return;
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return;
        const int timeout_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count());
        auto waited =
            epoll_.wait(events_, std::min(timeout_ms, 50));
        if (!waited)
            return;
        for (const util::net::EpollEvent &event : events_) {
            auto found = connections_.find(event.tag);
            if (found == connections_.end())
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
    snapshot.rejected_deadline = counters.rejected_deadline;
    snapshot.rejected_shutting_down = counters.rejected_shutting_down;
    snapshot.queue_depth = counters.queue_depth;
    snapshot.running = counters.running;
    snapshot.locks_broken = counters.locks_broken;
    snapshot.open_connections = live_connections_.load();
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
    snapshot.shard_index = config_.shard_index;
    snapshot.pid = static_cast<std::int64_t>(::getpid());
    snapshot.draining = drain_requested_.load();
    snapshot.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_at_)
            .count();
    return snapshot;
}

void
Server::emit_heartbeat()
{
    if (config_.heartbeat_fd < 0)
        return;
    const auto now = std::chrono::steady_clock::now();
    if (now < next_heartbeat_at_)
        return;
    next_heartbeat_at_ =
        now + std::chrono::milliseconds(
                  std::max(config_.heartbeat_interval_ms, 1));
    // Non-blocking by construction (the supervisor opens the pipe
    // O_NONBLOCK): a full pipe means the supervisor is behind on
    // draining, and dropping a pulse is exactly right — liveness is
    // recency, not a count.
    const char pulse = 'h';
    (void)!::write(config_.heartbeat_fd, &pulse, 1);
}

} // namespace leakbound::serve
