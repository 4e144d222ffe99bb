/**
 * @file
 * The leakboundd server: edge-triggered epoll event loops over
 * non-blocking sockets, connection state machines, stats, drain.
 *
 * Threading/ownership model (DESIGN.md §6): serve() runs one event
 * loop per scheduler worker (one on the calling thread, the rest on
 * threads of their own).  Every loop polls the same listeners; the
 * loop that wakes accepts and deals each connection to the loops in
 * turn, and from then on the connection's owner loop is the ONLY
 * thread that ever touches it — socket, buffers, reply queue all live
 * and die there.  Compute lives in the one Scheduler every loop
 * shares, so dedup and the response LRU cover the whole process: a
 * loop hands a decoded run request to Scheduler::submit_async and
 * moves on, so 10k idle-or-slow clients cost zero threads and zero
 * per-connection wakeups.  A worker delivers rendered response bytes
 * into the owner loop's mutex-guarded completion queue and kicks its
 * eventfd; the loop matches completions to their connection by
 * (connection id, reply sequence) — both survive the connection's
 * death, so a completion for a vanished client is dropped, never a
 * use-after-free — and resumes partial writes under EPOLLOUT.  On
 * SIGINT/SIGTERM or request_drain() every loop stops, the listeners
 * close, the scheduler drains once (in-flight experiments finish,
 * queued ones fail with ShuttingDown), and each loop flushes its
 * answered connections within one shared grace deadline before
 * serve() returns.
 */

#ifndef LEAKBOUND_SERVE_SERVER_HPP
#define LEAKBOUND_SERVE_SERVER_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "util/net.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

namespace leakbound::serve {

/** Shape of one daemon instance. */
struct ServerConfig
{
    /** Unix-domain socket path ("" = no unix listener). */
    std::string unix_path;
    /** TCP listen address; used when listen_tcp is true. */
    std::string tcp_host = "127.0.0.1";
    std::uint16_t tcp_port = 0; ///< 0 = kernel-assigned ephemeral port
    bool listen_tcp = false;
    /** Ceiling a request's "instructions" must stay under. */
    std::uint64_t max_instructions = core::kDefaultMaxRequestInstructions;
    /** Frame payload cap for both directions. */
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /** Concurrent connections; accepts beyond this are turned away. */
    unsigned max_sessions = 10'000;
    /** Event-loop wait ceiling (drain/interrupt latency upper bound). */
    int poll_interval_ms = 100;
    /** Grace period for flushing answered connections on drain. */
    int drain_flush_ms = 2'000;
    /** Its workers count is also the number of event loops. */
    SchedulerConfig scheduler;
};

/** One daemon: construct, start(), serve(); thread-safe stats/drain. */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the configured listeners (call once, before serve()). */
    util::Status start();

    /** The bound TCP port (after start(); 0 when no TCP listener). */
    std::uint16_t tcp_port() const { return tcp_port_; }

    /**
     * Run the event loops (one on the calling thread) until an
     * interrupt or request_drain(), then drain and flush everything.
     * Returns ok on a clean drain.
     */
    util::Status serve();

    /** Ask serve() to drain and return (thread-safe, idempotent). */
    void request_drain();

    /** Assemble the /stats view (also what sessions reply with). */
    StatsSnapshot stats() const;

    /** Assemble the /health view (cheap; never touches the scheduler). */
    HealthSnapshot health() const;

  private:
    struct Loop;

    /** One queued response frame, in request order. */
    struct Reply
    {
        std::uint64_t seq = 0;
        bool ready = false;
        /** Whether this reply's latency is recorded (run requests). */
        bool timed = false;
        std::chrono::steady_clock::time_point begun;
        std::shared_ptr<const std::string> frame;
    };

    /**
     * One client connection's entire state machine, owned by one
     * loop: accumulate bytes → peel frames → dispatch → queue replies
     * in request order → write with partial-write resumption.
     */
    struct Connection
    {
        util::net::Socket socket;
        Loop *loop = nullptr; ///< the owner; never changes
        std::uint64_t id = 0;
        /** Unparsed inbound bytes ([inoff, size) is live). */
        std::string inbuf;
        std::size_t inoff = 0;
        /** Replies in request order; front is next on the wire. */
        std::deque<Reply> replies;
        std::uint64_t next_seq = 0;
        /** Outbound bytes mid-flight ([outoff, size) unsent). */
        std::string outbuf;
        std::size_t outoff = 0;
        bool want_write = false;      ///< EPOLLOUT armed
        bool peer_closed = false;     ///< read side saw EOF
        bool close_after_flush = false; ///< hang up once drained
        bool shed = false;            ///< overload-rejected; not live
    };

    /** A worker's finished response en route to the owner loop. */
    struct PendingCompletion
    {
        std::uint64_t connection_id = 0;
        std::uint64_t seq = 0;
        std::shared_ptr<const std::string> response;
    };

    /** An accepted socket dealt to a loop, with its admission verdict. */
    struct Arrival
    {
        util::net::Socket socket;
        bool shed = false;
    };

    /**
     * One event loop: its epoll set, the connections it owns, and the
     * inbox other threads post to (worker completions and connections
     * dealt to it), announced through its eventfd.
     */
    struct Loop
    {
        util::net::Epoll epoll;
        std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
            connections;
        std::uint64_t next_connection_id = 100; ///< ids < 100 are tags
        std::vector<util::net::EpollEvent> events;
        /** Live (non-shed) connections owned; atomic so stats() reads. */
        std::atomic<std::uint64_t> live{0};

        util::net::WakeupFd wakeup;
        std::mutex inbox_mutex; ///< guards the two queues below
        std::vector<PendingCompletion> completions;
        std::vector<Arrival> arrivals;
        /** Completions being delivered; swapped with `completions`. */
        std::vector<PendingCompletion> batch;
        /** Connections `batch` answered, each flushed once after it. */
        std::vector<std::uint64_t> touched;
    };

    /** Run @p body on every loop at once (loop 0 on this thread). */
    void on_every_loop(const std::function<void(Loop &)> &body);
    /** One loop's serving phase: poll until a drain is requested. */
    util::Status run_loop(Loop &loop);
    /** Accept until EAGAIN, dealing each connection to its owner. */
    void accept_pending(Loop &loop, const util::net::Socket &listener);
    /** Register a dealt connection with @p loop (its owner). */
    void adopt(Loop &loop, Arrival arrival);
    void handle_readable(Connection *connection);
    /** Peel complete frames off inbuf and dispatch each. */
    void parse_frames(Connection *connection);
    void dispatch(Connection *connection, const std::string &payload);
    /** Queue an already-rendered reply (ping/stats/errors). */
    void enqueue_ready(Connection *connection, std::string frame,
                       bool timed = false,
                       std::chrono::steady_clock::time_point begun = {});
    /** Move ready replies into outbuf and push bytes to the socket. */
    void flush_writes(Connection *connection);
    void update_write_interest(Connection *connection);
    void destroy(Connection *connection);
    /** Adopt dealt connections and deliver completions to @p loop's. */
    void drain_inbox(Loop &loop);
    /**
     * Thread-safe: workers (or the loop) post a finished response.
     * Kicks @p loop's eventfd unless called from inside that loop's
     * own run_loop, which drains its inbox after every event batch.
     */
    void queue_completion(Loop &loop, std::uint64_t connection_id,
                          std::uint64_t seq,
                          std::shared_ptr<const std::string> response);
    void note_protocol_error();
    /** Flush @p loop's answered connections after drain, until @p deadline. */
    void drain_flush(Loop &loop,
                     std::chrono::steady_clock::time_point deadline);

    ServerConfig config_;
    std::unique_ptr<Scheduler> scheduler_;
    util::net::Socket unix_listener_;
    util::net::Socket tcp_listener_;
    std::uint16_t tcp_port_ = 0;
    bool started_ = false;
    std::atomic<bool> drain_requested_{false};
    std::chrono::steady_clock::time_point started_at_;

    std::vector<std::unique_ptr<Loop>> loops_;
    /** The loop whose run_loop this thread is inside, else null. */
    static thread_local const Loop *running_loop_;
    /** Accepted connections so far; deals them to loops in turn. */
    std::atomic<std::uint64_t> dealt_{0};
    /** Live (non-shed) connections over all loops: max_sessions gate. */
    std::atomic<std::uint64_t> live_connections_{0};

    mutable std::mutex mutex_; ///< guards the stats counters below
    std::uint64_t sessions_accepted_ = 0;
    std::uint64_t sessions_rejected_ = 0;
    std::uint64_t protocol_errors_ = 0;
    util::LatencyRecorder latency_ms_;
};

} // namespace leakbound::serve

#endif // LEAKBOUND_SERVE_SERVER_HPP
