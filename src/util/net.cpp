/**
 * @file
 * Implementation of the socket wrapper.
 */

#include "util/net.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/fault_injection.hpp"

namespace leakbound::util::net {

namespace {

Status
errno_status(const std::string &what)
{
    return Status(ErrorKind::IoError,
                  what + ": " + std::strerror(errno));
}

/**
 * Turn Nagle off.  Framed request/response traffic over persistent
 * connections is exactly the pattern Nagle + delayed ACK turns into
 * ~40 ms stalls.  A no-op (EOPNOTSUPP) on unix-domain sockets.
 */
void
disable_nagle(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Expected<Socket>
listen_unix(const std::string &path, int backlog)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        return Status(ErrorKind::InvalidArgument,
                      "socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid())
        return errno_status("cannot create unix socket");
    ::unlink(path.c_str()); // stale socket file from a dead daemon
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return errno_status("cannot bind " + path);
    if (::listen(sock.fd(), backlog) != 0)
        return errno_status("cannot listen on " + path);
    return sock;
}

Expected<Socket>
listen_tcp(const std::string &host, std::uint16_t port, int backlog)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Status(ErrorKind::InvalidArgument,
                      "not a numeric IPv4 address: " + host);
    }

    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        return errno_status("cannot create tcp socket");
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        return errno_status("cannot bind " + host + ":" +
                            std::to_string(port));
    }
    if (::listen(sock.fd(), backlog) != 0)
        return errno_status("cannot listen on " + host);
    return sock;
}

Expected<Socket>
connect_unix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        return Status(ErrorKind::InvalidArgument,
                      "socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid())
        return errno_status("cannot create unix socket");
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return errno_status("cannot connect to " + path);
    return sock;
}

Expected<Socket>
connect_tcp(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Status(ErrorKind::InvalidArgument,
                      "not a numeric IPv4 address: " + host);
    }

    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        return errno_status("cannot create tcp socket");
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        return errno_status("cannot connect to " + host + ":" +
                            std::to_string(port));
    }
    disable_nagle(sock.fd());
    return sock;
}

std::uint16_t
local_port(const Socket &socket)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(socket.fd(), reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return 0;
    return ntohs(addr.sin_port);
}

Expected<Socket>
accept_connection(const Socket &listener)
{
    if (fault::should_fail(fault::Site::NetAccept))
        return Status(ErrorKind::FaultInjected, "injected accept fault");
    for (;;) {
        const int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd >= 0) {
            disable_nagle(fd);
            return Socket(fd);
        }
        if (errno == EINTR)
            continue;
        return errno_status("accept failed");
    }
}

Status
set_nonblocking(const Socket &socket, bool on)
{
    const int flags = ::fcntl(socket.fd(), F_GETFL, 0);
    if (flags < 0)
        return errno_status("fcntl(F_GETFL) failed");
    const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (want != flags && ::fcntl(socket.fd(), F_SETFL, want) < 0)
        return errno_status("fcntl(F_SETFL) failed");
    return Status();
}

Expected<Socket>
try_accept(const Socket &listener)
{
    if (fault::should_fail(fault::Site::NetAccept))
        return Status(ErrorKind::FaultInjected, "injected accept fault");
    for (;;) {
        const int fd = ::accept(listener.fd(), nullptr, nullptr);
        if (fd >= 0) {
            disable_nagle(fd);
            return Socket(fd);
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return Socket(); // nothing pending
        return errno_status("accept failed");
    }
}

Expected<IoResult>
read_some(const Socket &socket, void *buffer, std::size_t size)
{
    if (fault::should_fail(fault::Site::NetRead)) {
        return Status(ErrorKind::FaultInjected,
                      "injected socket read fault");
    }
    IoResult result;
    for (;;) {
        const ssize_t n = ::recv(socket.fd(), buffer, size, 0);
        if (n > 0) {
            result.bytes = static_cast<std::size_t>(n);
            return result;
        }
        if (n == 0) {
            result.closed = true;
            return result;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            result.would_block = true;
            return result;
        }
        if (errno == ECONNRESET) {
            return Status(ErrorKind::ConnectionClosed,
                          "connection reset by peer");
        }
        return errno_status("socket read failed");
    }
}

Expected<IoResult>
write_some(const Socket &socket, const void *data, std::size_t size)
{
    if (fault::should_fail(fault::Site::NetWrite)) {
        return Status(ErrorKind::FaultInjected,
                      "injected socket write fault");
    }
    // Partial-write injection: attempt only half the bytes, so
    // resume-from-offset paths are exercised deterministically.
    if (size > 1 && fault::should_fail(fault::Site::NetShortWrite))
        size = size / 2;
    IoResult result;
    for (;;) {
        const ssize_t n = ::send(socket.fd(), data, size, MSG_NOSIGNAL);
        if (n >= 0) {
            result.bytes = static_cast<std::size_t>(n);
            return result;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            result.would_block = true;
            return result;
        }
        if (errno == EPIPE || errno == ECONNRESET) {
            return Status(ErrorKind::ConnectionClosed,
                          "peer closed the connection mid-write");
        }
        return errno_status("socket write failed");
    }
}

Status
send_all(const Socket &socket, const void *data, std::size_t size)
{
    // Built on write_some so blocking and non-blocking callers share
    // one EINTR/short-write/chaos-seam story; EAGAIN (a non-blocking
    // socket with a full buffer) parks in poll until writable instead
    // of silently dropping the tail of the frame.
    const char *bytes = static_cast<const char *>(data);
    std::size_t sent = 0;
    while (sent < size) {
        auto wrote = write_some(socket, bytes + sent, size - sent);
        if (!wrote)
            return wrote.status();
        sent += wrote.value().bytes;
        if (wrote.value().would_block) {
            pollfd pfd{};
            pfd.fd = socket.fd();
            pfd.events = POLLOUT;
            if (::poll(&pfd, 1, -1) < 0 && errno != EINTR)
                return errno_status("poll for writability failed");
        }
    }
    return Status();
}

Status
recv_exact(const Socket &socket, std::size_t size, std::string &out)
{
    out.clear();
    out.reserve(size);
    char buf[1 << 16];
    while (out.size() < size) {
        const std::size_t want =
            std::min(size - out.size(), sizeof(buf));
        auto got = read_some(socket, buf, want);
        if (!got) {
            if (got.status().kind() == ErrorKind::ConnectionClosed &&
                !out.empty()) {
                return Status(ErrorKind::CorruptData,
                              "truncated read: got " +
                                  std::to_string(out.size()) + " of " +
                                  std::to_string(size) + " bytes");
            }
            return got.status();
        }
        const IoResult &result = got.value();
        if (result.bytes > 0) {
            out.append(buf, result.bytes);
            continue;
        }
        if (result.closed) {
            if (out.empty()) {
                return Status(ErrorKind::ConnectionClosed,
                              "peer closed the connection");
            }
            return Status(ErrorKind::CorruptData,
                          "truncated read: got " +
                              std::to_string(out.size()) + " of " +
                              std::to_string(size) + " bytes");
        }
        // EAGAIN on a non-blocking socket: wait for readability.
        pollfd pfd{};
        pfd.fd = socket.fd();
        pfd.events = POLLIN;
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR)
            return errno_status("poll for readability failed");
    }
    return Status();
}

// ------------------------------------------------------------------ epoll

Epoll::Epoll() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

Epoll::~Epoll()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Status
Epoll::control(int op, int fd, std::uint64_t tag, bool want_read,
               bool want_write, bool edge_triggered)
{
    epoll_event ev{};
    ev.events = EPOLLRDHUP;
    if (want_read)
        ev.events |= EPOLLIN;
    if (want_write)
        ev.events |= EPOLLOUT;
    if (edge_triggered)
        ev.events |= EPOLLET;
    ev.data.u64 = tag;
    if (::epoll_ctl(fd_, op, fd, &ev) != 0)
        return errno_status("epoll_ctl failed");
    return Status();
}

Status
Epoll::add(int fd, std::uint64_t tag, bool want_read, bool want_write,
           bool edge_triggered)
{
    return control(EPOLL_CTL_ADD, fd, tag, want_read, want_write,
                   edge_triggered);
}

Status
Epoll::modify(int fd, std::uint64_t tag, bool want_read, bool want_write,
              bool edge_triggered)
{
    return control(EPOLL_CTL_MOD, fd, tag, want_read, want_write,
                   edge_triggered);
}

Expected<std::size_t>
Epoll::wait(std::vector<EpollEvent> &out, int timeout_ms)
{
    out.clear();
    // A stack array, not a vector: this runs on every turn of every
    // event loop, and epoll_wait fills only what it reports.
    constexpr int kMaxEvents = 256;
    epoll_event events[kMaxEvents];
    const int n = ::epoll_wait(fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
        if (errno == EINTR)
            return std::size_t{0};
        return errno_status("epoll_wait failed");
    }
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        EpollEvent event;
        event.tag = events[i].data.u64;
        const std::uint32_t mask = events[i].events;
        event.readable = (mask & EPOLLIN) != 0;
        event.writable = (mask & EPOLLOUT) != 0;
        event.error = (mask & EPOLLERR) != 0;
        event.hangup = (mask & (EPOLLHUP | EPOLLRDHUP)) != 0;
        out.push_back(event);
    }
    return static_cast<std::size_t>(n);
}

// ----------------------------------------------------------------- wakeup

WakeupFd::WakeupFd()
    : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))
{
}

WakeupFd::~WakeupFd()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
WakeupFd::signal()
{
    const std::uint64_t one = 1;
    ssize_t rc;
    do {
        rc = ::write(fd_, &one, sizeof(one));
    } while (rc < 0 && errno == EINTR);
    // EAGAIN means the counter is already saturated: the loop is
    // guaranteed to wake, which is all a wakeup line promises.
}

void
WakeupFd::consume()
{
    std::uint64_t count = 0;
    ssize_t rc;
    do {
        rc = ::read(fd_, &count, sizeof(count));
    } while (rc < 0 && errno == EINTR);
}

} // namespace leakbound::util::net
