/**
 * @file
 * Implementation of the typed error value.
 */

#include "util/status.hpp"

namespace leakbound::util {

const char *
error_kind_name(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::None: return "ok";
      case ErrorKind::IoError: return "io_error";
      case ErrorKind::NotFound: return "not_found";
      case ErrorKind::CorruptData: return "corrupt_data";
      case ErrorKind::LockTimeout: return "lock_timeout";
      case ErrorKind::Interrupted: return "interrupted";
      case ErrorKind::InvalidArgument: return "invalid_argument";
      case ErrorKind::FaultInjected: return "fault_injected";
      case ErrorKind::Internal: return "internal";
      case ErrorKind::Overloaded: return "overloaded";
      case ErrorKind::ShuttingDown: return "shutting_down";
      case ErrorKind::ConnectionClosed: return "connection_closed";
    }
    return "unknown";
}

std::optional<ErrorKind>
error_kind_from_name(std::string_view name)
{
    static constexpr ErrorKind kAll[] = {
        ErrorKind::None,           ErrorKind::IoError,
        ErrorKind::NotFound,       ErrorKind::CorruptData,
        ErrorKind::LockTimeout,    ErrorKind::Interrupted,
        ErrorKind::InvalidArgument, ErrorKind::FaultInjected,
        ErrorKind::Internal,       ErrorKind::Overloaded,
        ErrorKind::ShuttingDown,   ErrorKind::ConnectionClosed,
    };
    for (ErrorKind kind : kAll)
        if (name == error_kind_name(kind))
            return kind;
    return std::nullopt;
}

std::string
Status::to_string() const
{
    if (ok())
        return "ok";
    std::string out = error_kind_name(kind_);
    if (!message_.empty()) {
        out += ": ";
        out += message_;
    }
    return out;
}

} // namespace leakbound::util
