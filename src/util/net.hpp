/**
 * @file
 * Thin, Status-returning wrapper over Unix-domain and TCP stream
 * sockets for the serve subsystem (serve/server, serve/client).
 *
 * Two tiers of API.  The blocking tier (send_all / recv_exact,
 * accept_connection) serves clients and tests: byte-exact,
 * EINTR- and EAGAIN-correct even on sockets someone flipped
 * non-blocking, retrying short writes internally.  The readiness tier
 * (set_nonblocking, read_some / write_some, try_accept, and the Epoll
 * RAII wrapper) serves the daemon's event loop: every call makes at
 * most one pass over the socket and reports "would block" as data, not
 * as an error, so an edge-triggered loop can drain a socket to EAGAIN
 * without ever parking a thread.  Every failure path returns a typed
 * util::Status — library code never kills the process over a flaky
 * peer — and clean peer close is its own kind
 * (ErrorKind::ConnectionClosed) so protocol code can tell "client went
 * away" from "stream corrupted".
 *
 * Chaos builds compile net_accept / net_read / net_write /
 * net_short_write fault seams into the syscall wrappers (see
 * util/fault_injection.hpp): the first three fail the operation typed,
 * net_short_write truncates a write to half its bytes — so the
 * daemon's robustness against vanishing peers, mid-frame write
 * failures and partial writes is testable without a misbehaving
 * network.
 */

#ifndef LEAKBOUND_UTIL_NET_HPP
#define LEAKBOUND_UTIL_NET_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace leakbound::util::net {

/** Owning file-descriptor handle; move-only, closes on destruction. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;
    Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket &operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Close now (idempotent; the destructor also calls this). */
    void close();

  private:
    int fd_ = -1;
};

/**
 * Default listen() backlog.  Deep on purpose: the event loop accepts
 * in batches, and a connection storm (thousands of clients connecting
 * at once) must land in the kernel's accept queue rather than drop
 * SYNs into multi-second retransmit stalls.  The kernel clamps it to
 * net.core.somaxconn.
 */
inline constexpr int kListenBacklog = 4096;

/**
 * Create, bind and listen on a Unix-domain stream socket at @p path.
 * A stale socket file at @p path is unlinked first (the daemon owns
 * its socket path; two daemons sharing one path is a config error the
 * second bind cannot detect portably anyway).
 */
Expected<Socket> listen_unix(const std::string &path,
                             int backlog = kListenBacklog);

/**
 * Create, bind and listen on a TCP socket at @p host:@p port.
 * @p host must be a numeric IPv4 address (e.g. "127.0.0.1"); port 0
 * lets the kernel pick — read it back with local_port().
 */
Expected<Socket> listen_tcp(const std::string &host, std::uint16_t port,
                            int backlog = kListenBacklog);

/** Connect to a Unix-domain listener at @p path. */
Expected<Socket> connect_unix(const std::string &path);

/** Connect to a TCP listener at numeric @p host:@p port. */
Expected<Socket> connect_tcp(const std::string &host, std::uint16_t port);

/** The locally bound TCP port of @p socket (0 on failure). */
std::uint16_t local_port(const Socket &socket);

/**
 * Accept one pending connection from @p listener (blocks until one
 * arrives).  Transient accept
 * failures (aborted handshakes, fd pressure, the net_accept fault
 * seam) return IoError — the accept loop logs and keeps serving.
 */
Expected<Socket> accept_connection(const Socket &listener);

/** Put @p socket into (or out of) non-blocking mode. */
Status set_nonblocking(const Socket &socket, bool on = true);

/**
 * Accept one pending connection from a non-blocking @p listener
 * without ever blocking: an invalid Socket value means nothing was
 * pending (EAGAIN).  Transient failures (aborted handshakes, fd
 * pressure, the net_accept fault seam) are IoError, same as
 * accept_connection.
 */
Expected<Socket> try_accept(const Socket &listener);

/**
 * What one non-blocking read/write pass observed.  Exactly one of the
 * flags is interesting: bytes > 0 means progress; would_block means
 * the socket is drained (edge-triggered loops re-arm and move on);
 * closed (reads only) means clean EOF.
 */
struct IoResult
{
    std::size_t bytes = 0;
    bool would_block = false;
    bool closed = false;
};

/**
 * One recv pass: read up to @p size bytes into @p buffer.  Never
 * blocks on a non-blocking socket; EINTR retries internally.  A reset
 * peer is ConnectionClosed; other failures IoError.
 */
Expected<IoResult> read_some(const Socket &socket, void *buffer,
                             std::size_t size);

/**
 * One send pass: write up to @p size bytes (SIGPIPE suppressed).
 * Short writes are *returned*, not retried — the caller owns the
 * resume-from-offset state (that is the point of an event loop).  The
 * net_short_write chaos seam truncates the attempt to half its bytes.
 * A dead peer is ConnectionClosed; other failures IoError.
 */
Expected<IoResult> write_some(const Socket &socket, const void *data,
                              std::size_t size);

/** One readiness event out of Epoll::wait. */
struct EpollEvent
{
    std::uint64_t tag = 0;  ///< caller's cookie from add()/modify()
    bool readable = false;  ///< EPOLLIN
    bool writable = false;  ///< EPOLLOUT
    bool error = false;     ///< EPOLLERR
    bool hangup = false;    ///< EPOLLHUP | EPOLLRDHUP
};

/**
 * RAII wrapper over an epoll instance.  Registration is by raw fd +
 * caller cookie (the event loop maps cookies back to connections, so
 * a completion for an already-closed connection is droppable by
 * construction).  Edge-triggered when @p edge_triggered — the caller
 * must then drain to EAGAIN on every event.  wait() reports EINTR as
 * zero events so callers re-check their interrupt flag and come back.
 */
class Epoll
{
  public:
    Epoll();
    ~Epoll();

    Epoll(const Epoll &) = delete;
    Epoll &operator=(const Epoll &) = delete;

    bool valid() const { return fd_ >= 0; }

    /** Register @p fd for @p want_read/@p want_write under @p tag. */
    Status add(int fd, std::uint64_t tag, bool want_read,
               bool want_write, bool edge_triggered = true);

    /** Change the interest set of an already-registered @p fd. */
    Status modify(int fd, std::uint64_t tag, bool want_read,
                  bool want_write, bool edge_triggered = true);

    /**
     * Wait up to @p timeout_ms, filling @p out (cleared first) with at
     * most 256 events.  Returns the event count; 0 on timeout or EINTR.
     */
    Expected<std::size_t> wait(std::vector<EpollEvent> &out,
                               int timeout_ms);

  private:
    Status control(int op, int fd, std::uint64_t tag, bool want_read,
                   bool want_write, bool edge_triggered);

    int fd_ = -1;
};

/**
 * A level-triggered self-wakeup line (eventfd): any thread may
 * signal(); the owning event loop registers fd() for reads and calls
 * consume() when it fires.  Used to kick epoll_wait when a scheduler
 * worker finishes a job or drain is requested.
 */
class WakeupFd
{
  public:
    WakeupFd();
    ~WakeupFd();

    WakeupFd(const WakeupFd &) = delete;
    WakeupFd &operator=(const WakeupFd &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Make the fd readable (thread-safe, async-signal-safe). */
    void signal();

    /** Drain the pending signal(s); the fd goes quiet again. */
    void consume();

  private:
    int fd_ = -1;
};

/**
 * Write all @p size bytes to @p socket (retrying short writes and
 * EINTR; SIGPIPE suppressed).  A dead peer returns
 * ConnectionClosed; other failures IoError.
 */
Status send_all(const Socket &socket, const void *data, std::size_t size);

/**
 * Read exactly @p size bytes into @p out (cleared first).  EOF before
 * the first byte is ConnectionClosed (the peer hung up between
 * frames); EOF mid-buffer is CorruptData (a truncated frame — the
 * peer died mid-message or lied in its length prefix).
 */
Status recv_exact(const Socket &socket, std::size_t size,
                  std::string &out);

} // namespace leakbound::util::net

#endif // LEAKBOUND_UTIL_NET_HPP
