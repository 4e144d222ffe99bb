/**
 * @file
 * Implementation of the experiment artifact cache.
 */

#include "core/artifact_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "interval/interval_histogram.hpp"
#include "util/binary_io.hpp"
#include "util/fault_injection.hpp"
#include "util/fingerprint.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace leakbound::core {

namespace {

constexpr char kEntryMagic[8] = {'l', 'k', 'b', 'a', 'r', 't', '0', '1'};

void
mix_cache_config(util::Fingerprint &fp, const sim::CacheConfig &config)
{
    // The name string is cosmetic (stats labels) and deliberately
    // excluded: renaming a cache must not invalidate its artifacts.
    fp.mix_u64(config.size_bytes);
    fp.mix_u64(config.line_bytes);
    fp.mix_u64(config.associativity);
    fp.mix_u64(config.hit_latency);
    fp.mix_u64(static_cast<std::uint64_t>(config.replacement));
}

void
serialize_cache_stats(util::BinaryWriter &w, const sim::CacheStats &stats)
{
    w.put_u64(stats.accesses);
    w.put_u64(stats.hits);
    w.put_u64(stats.misses);
    w.put_u64(stats.evictions);
}

sim::CacheStats
deserialize_cache_stats(util::BinaryReader &r)
{
    sim::CacheStats stats;
    stats.accesses = r.get_u64();
    stats.hits = r.get_u64();
    stats.misses = r.get_u64();
    stats.evictions = r.get_u64();
    return stats;
}

void
serialize_observation(util::BinaryWriter &w, const CacheObservation &obs)
{
    obs.intervals.serialize(w);
    serialize_cache_stats(w, obs.stats);
}

std::optional<CacheObservation>
deserialize_observation(util::BinaryReader &r)
{
    auto intervals = interval::IntervalHistogramSet::deserialize(r);
    if (!intervals)
        return std::nullopt;
    CacheObservation obs(std::move(*intervals));
    obs.stats = deserialize_cache_stats(r);
    if (r.failed())
        return std::nullopt;
    return obs;
}

/** Age of the file at @p path; a very large value when unreadable. */
std::chrono::milliseconds
file_age(const std::string &path)
{
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec)
        return std::chrono::milliseconds::max();
    const auto age =
        std::filesystem::file_time_type::clock::now() - mtime;
    return std::chrono::duration_cast<std::chrono::milliseconds>(age);
}

/**
 * Removes the lock file on scope exit, so a simulate() that throws
 * while this process owns the entry lock cannot leave the lock behind
 * to stall every other process until the stale-break age.
 */
class LockGuard
{
  public:
    explicit LockGuard(std::string path) : path_(std::move(path)) {}
    ~LockGuard() { std::remove(path_.c_str()); }
    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    std::string path_;
};

} // namespace

std::uint64_t
fingerprint_config(const ExperimentConfig &config)
{
    util::Fingerprint fp;
    fp.mix_u64(kArtifactFormatVersion);
    fp.mix_u64(config.instructions);
    mix_cache_config(fp, config.hierarchy.l1i);
    mix_cache_config(fp, config.hierarchy.l1d);
    mix_cache_config(fp, config.hierarchy.l2);
    fp.mix_u64(config.hierarchy.memory_latency);
    fp.mix_u64(config.core.fetch_width);
    fp.mix_u64(config.core.instr_bytes);
    fp.mix_u64(config.core.miss_overlap_percent);
    fp.mix_u64(config.stride.table_entries);
    fp.mix_u64(config.stride.confirmations);
    fp.mix_u64(config.nl_lead_time);
    fp.mix_u64(config.collect_l2 ? 1 : 0);
    // Hash the *derived* edge list, not extra_edges verbatim: two
    // configs whose extras dedupe/sort to the same bins produce
    // identical results and should share an entry.
    fp.mix_u64_vector(
        interval::IntervalHistogramSet::default_edges(config.extra_edges));
    // Multicore shape: the length prefix keeps an empty mix from
    // aliasing a homogeneous explicit one, and the names keep mixes
    // apart by content *and* order (core i's stream depends on its
    // slot).
    fp.mix_u64(config.core_count);
    fp.mix_u64(config.workload_mix.size());
    for (const std::string &name : config.workload_mix)
        fp.mix_string(name);
    return fp.digest();
}

std::uint64_t
fingerprint_entry(std::uint64_t config_fingerprint,
                  const std::string &workload)
{
    util::Fingerprint fp;
    fp.mix_u64(config_fingerprint);
    fp.mix_string(workload);
    return fp.digest();
}

std::uint64_t
fingerprint_experiment(const std::string &workload,
                       const ExperimentConfig &config)
{
    return fingerprint_entry(fingerprint_config(config), workload);
}

std::string
serialize_result(const ExperimentResult &result)
{
    util::BinaryWriter w;
    w.put_string(result.workload);
    w.put_u64(result.core.instructions);
    w.put_u64(result.core.cycles);
    w.put_u64(result.core.fetch_groups);
    w.put_u64(result.core.loads);
    w.put_u64(result.core.stores);
    w.put_u64(result.core.instr_stall_cycles);
    w.put_u64(result.core.data_stall_cycles);
    serialize_observation(w, result.icache);
    serialize_observation(w, result.dcache);
    w.put_u8(result.l2cache.has_value() ? 1 : 0);
    if (result.l2cache)
        serialize_observation(w, *result.l2cache);
    serialize_cache_stats(w, result.l2);
    return w.take();
}

std::optional<ExperimentResult>
deserialize_result(const std::string &bytes)
{
    util::BinaryReader r(bytes);
    const std::string workload = r.get_string();
    cpu::CoreRunStats core;
    core.instructions = r.get_u64();
    core.cycles = r.get_u64();
    core.fetch_groups = r.get_u64();
    core.loads = r.get_u64();
    core.stores = r.get_u64();
    core.instr_stall_cycles = r.get_u64();
    core.data_stall_cycles = r.get_u64();
    auto icache = deserialize_observation(r);
    if (!icache)
        return std::nullopt;
    auto dcache = deserialize_observation(r);
    if (!dcache)
        return std::nullopt;

    ExperimentResult result(std::move(*icache), std::move(*dcache));
    result.workload = workload;
    result.core = core;
    const std::uint8_t has_l2 = r.get_u8();
    if (has_l2 > 1)
        return std::nullopt;
    if (has_l2) {
        auto l2cache = deserialize_observation(r);
        if (!l2cache)
            return std::nullopt;
        result.l2cache.emplace(std::move(*l2cache));
    }
    result.l2 = deserialize_cache_stats(r);
    // Trailing garbage means the payload is not what we wrote.
    if (!r.at_end())
        return std::nullopt;
    return result;
}

std::string
resolve_cache_dir(const std::string &flag_value)
{
    if (!flag_value.empty())
        return flag_value;
    const char *env = std::getenv("LEAKBOUND_CACHE_DIR");
    return env ? std::string(env) : std::string();
}

ArtifactCache::ArtifactCache(std::string dir)
    : ArtifactCache(std::move(dir), LockOptions())
{
}

ArtifactCache::ArtifactCache(std::string dir, LockOptions options)
    : dir_(std::move(dir)), options_(options)
{
    LEAKBOUND_ASSERT(!dir_.empty(), "artifact cache needs a directory");
}

std::string
ArtifactCache::entry_path(std::uint64_t key) const
{
    return dir_ + "/" + util::hex64(key) + ".lbx";
}

std::string
ArtifactCache::lock_path(std::uint64_t key) const
{
    return entry_path(key) + ".lock";
}

bool
ArtifactCache::try_lock(const std::string &path) const
{
    if (util::fault::should_fail(util::fault::Site::Lock, path))
        return false;
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false;
    const std::string pid = std::to_string(::getpid()) + "\n";
    // The pid is advisory debugging info; a failed write is harmless.
    [[maybe_unused]] const auto ignored =
        ::write(fd, pid.data(), pid.size());
    ::close(fd);
    return true;
}

std::optional<ExperimentResult>
ArtifactCache::try_load(std::uint64_t key) const
{
    const std::string path = entry_path(key);
    std::string bytes;
    const util::Status read = util::read_file_bytes(path, bytes);
    if (!read.ok()) {
        // A missing entry is the normal cold-cache case; anything else
        // (unreadable file) is an entry we cannot use — count it so the
        // report shows why the cache ran cold.
        if (read.kind() != util::ErrorKind::NotFound) {
            corrupt_entries_.fetch_add(1, std::memory_order_relaxed);
            util::warn("cannot read cache entry: ", read.to_string());
        }
        return std::nullopt;
    }

    auto reject = [&path, this]() -> std::optional<ExperimentResult> {
        corrupt_entries_.fetch_add(1, std::memory_order_relaxed);
        util::warn("discarding corrupt/mismatched cache entry: ", path);
        std::remove(path.c_str());
        return std::nullopt;
    };

    util::BinaryReader r(bytes);
    char magic[sizeof(kEntryMagic)];
    for (char &c : magic)
        c = static_cast<char>(r.get_u8());
    if (r.failed() ||
        std::memcmp(magic, kEntryMagic, sizeof(kEntryMagic)) != 0)
        return reject();
    if (r.get_u32() != kArtifactFormatVersion)
        return reject();
    if (r.get_u64() != key)
        return reject();
    const std::uint64_t payload_size = r.get_u64();
    if (r.failed() || payload_size + 8 != r.remaining())
        return reject();

    const std::size_t header = bytes.size() - r.remaining();
    const std::string payload =
        bytes.substr(header, static_cast<std::size_t>(payload_size));
    if (util::fnv1a(payload.data(), payload.size()) !=
        util::BinaryReader(bytes.data() + header + payload.size(), 8)
            .get_u64())
        return reject();

    auto result = deserialize_result(payload);
    if (!result)
        return reject();
    return result;
}

void
ArtifactCache::demote(const std::string &why) const
{
    if (degraded_.exchange(true, std::memory_order_relaxed))
        return; // already demoted; warn only once per cache
    util::warn("artifact cache demoted to pass-through (", why,
               "); results stay correct, later runs lose the warm-cache "
               "speedup");
}

CacheHealth
ArtifactCache::health() const
{
    CacheHealth h;
    h.store_failures = store_failures_.load(std::memory_order_relaxed);
    h.corrupt_entries = corrupt_entries_.load(std::memory_order_relaxed);
    h.lock_breaks = lock_breaks_.load(std::memory_order_relaxed);
    h.lock_timeouts = lock_timeouts_.load(std::memory_order_relaxed);
    h.lock_retries = lock_retries_.load(std::memory_order_relaxed);
    h.degraded_jobs = degraded_jobs_.load(std::memory_order_relaxed);
    h.degraded = degraded_.load(std::memory_order_relaxed);
    return h;
}

util::Status
ArtifactCache::store(std::uint64_t key, const ExperimentResult &result) const
{
    auto record_failure = [this](util::Status status) {
        const std::uint64_t failures =
            store_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
        util::warn("cannot write cache entry: ", status.to_string());
        if (failures >= kMaxStoreFailures)
            demote("repeated store failures");
        return status;
    };

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        return record_failure(util::Status(
            util::ErrorKind::IoError,
            "cannot create cache dir " + dir_ + ": " + ec.message()));
    }

    const std::string payload = serialize_result(result);
    util::BinaryWriter w;
    for (char c : kEntryMagic)
        w.put_u8(static_cast<std::uint8_t>(c));
    w.put_u32(kArtifactFormatVersion);
    w.put_u64(key);
    w.put_u64(payload.size());
    std::string bytes = w.take();
    bytes += payload;
    util::BinaryWriter tail;
    tail.put_u64(util::fnv1a(payload.data(), payload.size()));
    bytes += tail.take();

    util::Status wrote = util::write_file_atomic(entry_path(key), bytes);
    if (!wrote.ok())
        return record_failure(std::move(wrote));
    return util::Status();
}

ExperimentResult
ArtifactCache::load_or_run(std::uint64_t key, const std::string &workload,
                           const std::function<ExperimentResult()> &simulate)
{
    if (degraded()) {
        // The cache already proved unusable this run; don't keep
        // hammering a broken directory, just do the work.
        degraded_jobs_.fetch_add(1, std::memory_order_relaxed);
        return simulate();
    }

    const auto load_start = std::chrono::steady_clock::now();
    if (auto hit = try_load(key)) {
        hit->from_cache = true;
        hit->wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - load_start)
                .count();
        util::inform("cache hit for ", workload, " (",
                     util::hex64(key), ")");
        return std::move(*hit);
    }

    // Miss.  Whoever wins the entry lock simulates and publishes; the
    // losers wait for the entry instead of duplicating the replay.
    const std::string lock = lock_path(key);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec); // lock needs the dir
    if (ec) {
        demote("cannot create cache dir " + dir_ + ": " + ec.message());
        degraded_jobs_.fetch_add(1, std::memory_order_relaxed);
        return simulate();
    }

    // Capped exponential backoff with deterministic jitter: the jitter
    // stream is seeded from the entry key, so a given contention
    // pattern replays identically (and two waiters on the same entry
    // still decorrelate via their different acquisition interleaving).
    util::Rng jitter(key ^ 0xcac4e10cULL);
    auto backoff = options_.backoff_initial;
    const auto wait_start = std::chrono::steady_clock::now();
    while (!try_lock(lock)) {
        const auto lock_age = file_age(lock);
        if (lock_age != std::chrono::milliseconds::max() &&
            lock_age > options_.stale_age) {
            lock_breaks_.fetch_add(1, std::memory_order_relaxed);
            util::warn("breaking stale cache lock: ", lock);
            std::remove(lock.c_str());
            continue;
        }
        if (std::chrono::steady_clock::now() - wait_start >
            options_.wait_timeout) {
            lock_timeouts_.fetch_add(1, std::memory_order_relaxed);
            util::warn("timed out waiting for cache lock ", lock,
                       "; simulating ", workload, " without caching");
            return simulate();
        }
        lock_retries_.fetch_add(1, std::memory_order_relaxed);
        const auto sleep =
            backoff + std::chrono::milliseconds(jitter.next_below(
                          static_cast<std::uint64_t>(backoff.count()) / 2 +
                          1));
        std::this_thread::sleep_for(sleep);
        backoff = std::min(backoff * 2, options_.backoff_cap);
        // The lock holder may have published while we slept.
        if (auto hit = try_load(key)) {
            hit->from_cache = true;
            hit->wall_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - load_start)
                    .count();
            util::inform("cache hit for ", workload, " (",
                         util::hex64(key), ", waited on writer)");
            return std::move(*hit);
        }
    }

    // We own the lock; the guard releases it even if simulate()
    // throws, so a dead job can never wedge sibling processes for the
    // full stale-break age.  Re-probe once (the previous holder may
    // have published between our miss and the acquire), then simulate.
    LockGuard guard(lock);
    if (auto hit = try_load(key)) {
        hit->from_cache = true;
        return std::move(*hit);
    }
    ExperimentResult fresh = simulate();
    (void)store(key, fresh); // counted + demotes internally on failure
    return fresh;
}

} // namespace leakbound::core
