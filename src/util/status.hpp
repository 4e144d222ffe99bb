/**
 * @file
 * Typed, propagating error values for recoverable failures.
 *
 * The severity ladder (see util/logging.hpp) handles the two extremes:
 * panic() for internal invariant violations (abort) and fatal() for
 * user errors at the process boundary (exit 2).  Everything in between
 * — a corrupt cache entry, an unwritable report path, a lock-wait
 * timeout — is *recoverable* by some caller up the stack and must not
 * kill the process from library code.  Those paths return a Status (or
 * an Expected<T> when there is a payload), and the suite runner turns
 * surviving failures into entries of the JSON report's "failures"
 * array instead of aborting sibling jobs.
 *
 * StatusError wraps a Status as an exception for the one place a
 * return value cannot cross: the thread-pool boundary.  Workers throw
 * it; core::run_suite_isolated catches it per job and records the
 * typed failure without disturbing the other jobs.
 */

#ifndef LEAKBOUND_UTIL_STATUS_HPP
#define LEAKBOUND_UTIL_STATUS_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "util/logging.hpp"

namespace leakbound::util {

/**
 * Failure taxonomy.  Kinds are coarse on purpose: they drive retry
 * decisions (is this transient?) and report grouping, not dispatch.
 */
enum class ErrorKind : std::uint8_t {
    None = 0,        ///< success (only ever inside an ok Status)
    IoError,         ///< open/write/flush/rename failed (possibly transient)
    NotFound,        ///< a path that simply is not there
    CorruptData,     ///< checksum/magic/bounds validation failed
    LockTimeout,     ///< gave up waiting on another writer's lock
    Interrupted,     ///< SIGINT/SIGTERM observed (see util/interrupt.hpp)
    InvalidArgument, ///< the caller asked for something impossible
    FaultInjected,   ///< a util::fault seam fired (chaos builds only)
    Internal,        ///< unexpected exception: a leakbound bug
    Overloaded,      ///< the serve admission queue is full; retry later
    ShuttingDown,    ///< the daemon is draining; no new work is admitted
    ConnectionClosed, ///< the peer closed the connection (clean EOF)
};

/** Stable lower_snake name of @p kind, as emitted in JSON reports. */
const char *error_kind_name(ErrorKind kind);

/**
 * Inverse of error_kind_name: the kind whose stable name is @p name,
 * or nullopt for an unrecognized string.  The serve client uses this
 * to rebuild a typed Status from the "kind" field of an error frame.
 */
std::optional<ErrorKind> error_kind_from_name(std::string_view name);

/** Success or a (kind, message) failure; default-constructed is ok. */
class [[nodiscard]] Status
{
  public:
    /** Success. */
    Status() = default;

    /** Failure of @p kind; @p kind must not be ErrorKind::None. */
    Status(ErrorKind kind, std::string message)
        : kind_(kind), message_(std::move(message))
    {
        LEAKBOUND_ASSERT(kind != ErrorKind::None,
                         "failure Status needs a non-None kind");
    }

    bool ok() const { return kind_ == ErrorKind::None; }
    ErrorKind kind() const { return kind_; }
    const std::string &message() const { return message_; }

    /** "ok" or "<kind>: <message>" for logs and exception text. */
    std::string to_string() const;

  private:
    ErrorKind kind_ = ErrorKind::None;
    std::string message_;
};

/** A T or the Status explaining why there is none. */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    /** Success carrying @p value. */
    Expected(T value) : value_(std::move(value)) {}

    /** Failure; @p status must not be ok. */
    Expected(Status status) : status_(std::move(status))
    {
        LEAKBOUND_ASSERT(!status_.ok(),
                         "Expected built from an ok Status but no value");
    }

    bool has_value() const { return value_.has_value(); }
    explicit operator bool() const { return has_value(); }

    /** The payload; asserts has_value(). */
    T &value()
    {
        LEAKBOUND_ASSERT(value_.has_value(), "value() on failed Expected: ",
                         status_.to_string());
        return *value_;
    }
    const T &value() const
    {
        LEAKBOUND_ASSERT(value_.has_value(), "value() on failed Expected: ",
                         status_.to_string());
        return *value_;
    }

    /** Move the payload out; asserts has_value(). */
    T take() { return std::move(value()); }

    /** ok() when has_value(), the failure otherwise. */
    const Status &status() const { return status_; }

  private:
    std::optional<T> value_;
    Status status_;
};

/**
 * A Status as an exception, for crossing boundaries that cannot return
 * one (thread-pool tasks, deep call stacks mid-simulation).  what() is
 * the status's to_string().
 */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.to_string()), status_(std::move(status))
    {
    }

    const Status &status() const { return status_; }

  private:
    Status status_;
};

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_STATUS_HPP
