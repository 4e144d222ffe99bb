/**
 * @file
 * Deterministic, seedable fault injection for the file-IO seams.
 *
 * Chaos builds (-DLEAKBOUND_FAULT_INJECTION=ON) compile probe calls
 * into binary_io, trace_io, the artifact cache, the suite runner and
 * the multicore directory check; each probe asks "should this
 * operation fail now?" and the injector answers from a counter-hashed
 * pseudo-random stream, so a given (seed, spec) produces the same
 * fault pattern on every run of the same serial call sequence.
 * Release builds (the default, OFF) compile every probe to a
 * constant-false inline — zero branches, zero strings, zero symbols —
 * which the `chaos_injector_compiled_out` CTest asserts by grepping
 * the built binary.
 *
 * Configuration is a spec string, either passed programmatically
 * (tests) or through the LEAKBOUND_FAULT_INJECTION environment
 * variable (bench binaries read it in make_cli):
 *
 *   site[@match]=rate[,site[@match]=rate...]
 *
 * where `site` is one of open_read, open_write, short_write, enospc,
 * rename_torn, simulate, net_accept, net_read, net_write,
 * net_short_write, directory; `rate` is a fault probability
 * in [0, 1]; and the optional `@match` restricts the rule to probes
 * whose tag (usually a path, workload name or multicore mix label)
 * contains the substring.  The seed comes from LEAKBOUND_FAULT_SEED
 * (default 0x1eafb01d).
 *
 * Example — fail a third of cache-entry publishes and every
 * simulation of ammp:
 *
 *   LEAKBOUND_FAULT_INJECTION="rename_torn=0.33,simulate@ammp=1" \
 *       ./fig8_schemes --jobs 4 --cache-dir /tmp/cache
 */

#ifndef LEAKBOUND_UTIL_FAULT_INJECTION_HPP
#define LEAKBOUND_UTIL_FAULT_INJECTION_HPP

#include <cstdint>
#include <string>
#include <string_view>

namespace leakbound::util::fault {

/** Every seam a fault can be injected at. */
enum class Site : std::uint8_t {
    OpenRead,   ///< opening a file for reading fails
    OpenWrite,  ///< creating/opening a file for writing fails
    ShortWrite, ///< a buffered write is truncated
    Enospc,     ///< flush/fsync fails as if the disk filled up
    RenameTorn, ///< atomic publish tears: half the bytes land, tmp lost
    Simulate,   ///< a suite job dies mid-simulation
    NetAccept,  ///< accepting a client connection fails
    NetRead,    ///< a socket read fails as if the peer vanished
    NetWrite,   ///< a socket write fails mid-frame
    NetShortWrite, ///< a socket write is truncated (partial write)
    Directory,  ///< a multicore run flips one mirrored L1D tag at finalize
};

inline constexpr std::size_t kNumFaultSites = 11;

/** The spec-string name of @p site ("open_read", ...). */
constexpr const char *
site_name(Site site)
{
    switch (site) {
      case Site::OpenRead: return "open_read";
      case Site::OpenWrite: return "open_write";
      case Site::ShortWrite: return "short_write";
      case Site::Enospc: return "enospc";
      case Site::RenameTorn: return "rename_torn";
      case Site::Simulate: return "simulate";
      case Site::NetAccept: return "net_accept";
      case Site::NetRead: return "net_read";
      case Site::NetWrite: return "net_write";
      case Site::NetShortWrite: return "net_short_write";
      case Site::Directory: return "directory";
    }
    return "unknown";
}

#if defined(LEAKBOUND_FAULT_INJECTION) && LEAKBOUND_FAULT_INJECTION

/** Probes are live in this build. */
inline constexpr bool kEnabled = true;

/**
 * Replace all rules with @p spec drawn from @p seed.  Not thread-safe
 * against concurrent should_fail() — configure before the run starts.
 * @return false (leaving the previous rules untouched) on a malformed
 * spec.
 */
bool configure(const std::string &spec, std::uint64_t seed);

/**
 * Configure from $LEAKBOUND_FAULT_INJECTION / $LEAKBOUND_FAULT_SEED;
 * no-op when the spec variable is unset or empty.  Warns loudly when
 * injection goes live so a chaos run is never mistaken for a real one.
 */
void configure_from_env();

/**
 * Should the probe at @p site (operating on @p tag — a path, workload
 * name, ...) fail?  Counts the injection when it answers yes.
 */
bool should_fail(Site site, std::string_view tag = {});

/** How many times @p site has fired since the last reset. */
std::uint64_t injected_count(Site site);

/** Total injected faults across all sites since the last reset. */
std::uint64_t total_injected();

/** Drop all rules and zero all counters (tests). */
void reset();

#else // release: probes fold to constant false

/** Probes are compiled out in this build. */
inline constexpr bool kEnabled = false;

inline bool
configure(const std::string &, std::uint64_t)
{
    return false;
}

inline void
configure_from_env()
{
}

inline constexpr bool
should_fail(Site, std::string_view = {})
{
    return false;
}

inline constexpr std::uint64_t
injected_count(Site)
{
    return 0;
}

inline constexpr std::uint64_t
total_injected()
{
    return 0;
}

inline void
reset()
{
}

#endif // LEAKBOUND_FAULT_INJECTION

} // namespace leakbound::util::fault

#endif // LEAKBOUND_UTIL_FAULT_INJECTION_HPP
