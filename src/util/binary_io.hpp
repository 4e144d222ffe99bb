/**
 * @file
 * Little-endian binary (de)serialization primitives and atomic file
 * replacement, shared by the experiment artifact cache and the bench
 * report writers.
 *
 * BinaryWriter appends fixed-width little-endian fields to an
 * in-memory byte buffer; BinaryReader consumes the same layout with
 * bounds checking on every read.  A reader never trusts its input:
 * running past the end (or an oversized length prefix) latches a
 * failure flag instead of reading garbage, so corrupt or truncated
 * cache entries are detected and discarded rather than propagated.
 */

#ifndef LEAKBOUND_UTIL_BINARY_IO_HPP
#define LEAKBOUND_UTIL_BINARY_IO_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace leakbound::util {

/** Append-only little-endian byte buffer builder. */
class BinaryWriter
{
  public:
    /** Append one byte. */
    void put_u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

    /** Append a 32-bit value, little-endian. */
    void put_u32(std::uint32_t v);

    /** Append a 64-bit value, little-endian. */
    void put_u64(std::uint64_t v);

    /** Append a length-prefixed (u64) byte string. */
    void put_string(const std::string &s);

    /** Append a length-prefixed (u64) vector of u64 values. */
    void put_u64_vector(const std::vector<std::uint64_t> &v);

    /** The bytes written so far. */
    const std::string &bytes() const { return out_; }

    /** Move the buffer out (the writer is empty afterwards). */
    std::string take() { return std::move(out_); }

    /** Bytes written so far. */
    std::size_t size() const { return out_.size(); }

  private:
    std::string out_;
};

/**
 * Bounds-checked reader over a byte span (not owned).  Every read
 * validates the remaining length first; a short or malformed input
 * sets failed() and makes all subsequent reads return zero values, so
 * callers can decode an entire record and check failed() once.
 */
class BinaryReader
{
  public:
    /** Read from @p data (must outlive the reader). */
    BinaryReader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    /** Read from a string's contents (must outlive the reader). */
    explicit BinaryReader(const std::string &bytes)
        : BinaryReader(bytes.data(), bytes.size())
    {
    }

    std::uint8_t get_u8();
    std::uint32_t get_u32();
    std::uint64_t get_u64();

    /** Read a length-prefixed byte string (empty on failure). */
    std::string get_string();

    /** Read a length-prefixed u64 vector (empty on failure). */
    std::vector<std::uint64_t> get_u64_vector();

    /** Whether any read so far ran out of bounds. */
    bool failed() const { return failed_; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

    /** Fail unless the input was consumed exactly. */
    bool at_end() const { return !failed_ && pos_ == size_; }

  private:
    /** Check that @p n more bytes exist; latch failed_ otherwise. */
    bool want(std::size_t n);

    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/**
 * Write @p contents to @p path atomically: write `<path>.tmp.<pid>`,
 * fsync, rename over @p path, then fsync the containing directory so
 * the publication itself survives power loss.  Readers of @p path
 * therefore see either the old or the new contents, never a torn mix,
 * and a "published" entry cannot silently vanish on crash.  Never fatal:
 * the temporary is cleaned up and an ErrorKind::IoError Status
 * describes what failed, so callers choose between degrading (cache
 * store), recording the failure (report flush), and dying (CLI-level
 * callers that cannot proceed).
 */
Status write_file_atomic(const std::string &path,
                         const std::string &contents);

/**
 * Read an entire file into @p out.  Returns ErrorKind::NotFound when
 * the file does not exist (cache probes routinely miss) and
 * ErrorKind::IoError for open/read failures on a file that does;
 * @p out is unspecified on error.
 */
Status read_file_bytes(const std::string &path, std::string &out);

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_BINARY_IO_HPP
