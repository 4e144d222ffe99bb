/**
 * @file
 * Implementation of the binary IO primitives.
 */

#include "util/binary_io.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

#include "util/fault_injection.hpp"

namespace leakbound::util {

namespace {

/**
 * fsync the directory containing @p path so a just-renamed entry's
 * directory record survives power loss.  fsync on the file alone only
 * persists its *contents*; the rename that published it lives in the
 * directory, and until that is synced a crash can silently roll the
 * publish back.  Directories that refuse open/fsync (some network and
 * pseudo filesystems) are treated as an IoError the caller can degrade
 * on, like every other publication failure.
 */
bool
sync_parent_dir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

void
BinaryWriter::put_u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
BinaryWriter::put_u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
BinaryWriter::put_string(const std::string &s)
{
    put_u64(s.size());
    out_.append(s);
}

void
BinaryWriter::put_u64_vector(const std::vector<std::uint64_t> &v)
{
    put_u64(v.size());
    for (std::uint64_t x : v)
        put_u64(x);
}

bool
BinaryReader::want(std::size_t n)
{
    if (failed_ || n > size_ - pos_) {
        failed_ = true;
        return false;
    }
    return true;
}

std::uint8_t
BinaryReader::get_u8()
{
    if (!want(1))
        return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t
BinaryReader::get_u32()
{
    if (!want(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
BinaryReader::get_u64()
{
    if (!want(8))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    return v;
}

std::string
BinaryReader::get_string()
{
    const std::uint64_t n = get_u64();
    // The length prefix itself must be covered by the remaining bytes;
    // this rejects absurd lengths from corrupt input before allocating.
    if (failed_ || n > size_ - pos_) {
        failed_ = true;
        return {};
    }
    std::string s(data_ + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
}

std::vector<std::uint64_t>
BinaryReader::get_u64_vector()
{
    const std::uint64_t n = get_u64();
    if (failed_ || n > (size_ - pos_) / 8) {
        failed_ = true;
        return {};
    }
    std::vector<std::uint64_t> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        v.push_back(get_u64());
    return v;
}

Status
write_file_atomic(const std::string &path, const std::string &contents)
{
    // Every call writes a temporary of its own, so concurrent writers
    // of one path (threads or processes) never share one: each renames
    // its own complete file into place.
    static std::atomic<std::uint64_t> next_tmp{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(next_tmp.fetch_add(1));
    std::FILE *file = fault::should_fail(fault::Site::OpenWrite, path)
                          ? nullptr
                          : std::fopen(tmp.c_str(), "wb");
    if (!file) {
        return Status(ErrorKind::IoError,
                      "cannot create file: " + tmp);
    }
    bool wrote =
        std::fwrite(contents.data(), 1, contents.size(), file) ==
        contents.size();
    if (wrote && fault::should_fail(fault::Site::ShortWrite, path))
        wrote = false;
    // Flush user buffers and the kernel page cache before the rename
    // publishes the file, so a crash never leaves a short entry under
    // the final name.
    bool synced = wrote && std::fflush(file) == 0 &&
                  ::fsync(::fileno(file)) == 0;
    if (synced && fault::should_fail(fault::Site::Enospc, path))
        synced = false;
    std::fclose(file);
    if (!synced) {
        std::remove(tmp.c_str());
        return Status(ErrorKind::IoError,
                      std::string(wrote ? "cannot flush " : "short write to ") +
                          tmp);
    }
    if (fault::should_fail(fault::Site::RenameTorn, path)) {
        // Model a torn publish: half the bytes land under the final
        // name, the temporary is gone, and the caller sees success.
        // Only content verification (the cache's length/checksum
        // checks) can catch this later — which is exactly the failure
        // mode this site exists to exercise.
        std::FILE *torn = std::fopen(path.c_str(), "wb");
        if (torn) {
            std::fwrite(contents.data(), 1, contents.size() / 2, torn);
            std::fclose(torn);
        }
        std::remove(tmp.c_str());
        return Status();
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status(ErrorKind::IoError,
                      "cannot rename " + tmp + " to " + path);
    }
    // The rename is only durable once the directory entry reaches the
    // disk; without this, a power cut after "successful" publication
    // can resurrect the old entry (or none at all).
    bool dir_synced = sync_parent_dir(path);
    if (dir_synced && fault::should_fail(fault::Site::Enospc, path))
        dir_synced = false;
    if (!dir_synced) {
        return Status(ErrorKind::IoError,
                      "cannot fsync directory of " + path);
    }
    return Status();
}

Status
read_file_bytes(const std::string &path, std::string &out)
{
    if (fault::should_fail(fault::Site::OpenRead, path))
        return Status(ErrorKind::IoError, "cannot open " + path);
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        if (errno == ENOENT) {
            return Status(ErrorKind::NotFound,
                          "no such file: " + path);
        }
        return Status(ErrorKind::IoError, "cannot open " + path);
    }
    out.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
        out.append(buf, n);
    const bool ok = std::ferror(file) == 0;
    std::fclose(file);
    if (!ok)
        return Status(ErrorKind::IoError, "read error on " + path);
    return Status();
}

} // namespace leakbound::util
