/**
 * @file
 * Shared plumbing of the leakbound benchmark (see common.hpp).
 */

#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#include "core/artifact_cache.hpp"
#include "util/binary_io.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"

namespace leakbench {

using namespace leakbound;

double
seconds_since(Clock::time_point begun)
{
    return seconds_between(begun, Clock::now());
}

double
seconds_between(Clock::time_point begun, Clock::time_point ended)
{
    return std::chrono::duration<double>(ended - begun).count();
}

void
Outcome::record(bool ok, const std::string &why)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (problems_.size() < kMaxProblems)
        problems_.push_back(why);
}

void
Outcome::merge(const Outcome &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string &why : other.problems_)
        if (problems_.size() < kMaxProblems)
            problems_.push_back(why);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
}

std::int64_t
Tracer::open(const std::string &name, std::int64_t parent,
             std::uint64_t trace_id)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = parent;
    span.trace_id = trace_id;
    std::lock_guard<std::mutex> lock(mutex_);
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - origin_)
                        .count();
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
Tracer::close(std::int64_t id)
{
    if (id < 0)
        return;
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin_)
            .count();
}

std::vector<double>
Tracer::durations_ns(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name && span.end_ns >= span.start_ns)
            out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    return out;
}

std::string
Tracer::to_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    util::JsonWriter w;
    w.begin_array();
    for (const Span &span : spans_) {
        w.begin_object();
        w.key("name").value(span.name);
        w.key("start_ns").value(span.start_ns);
        w.key("end_ns").value(span.end_ns);
        w.key("parent").value(span.parent);
        w.key("trace_id").value(span.trace_id);
        w.end_object();
    }
    w.end_array();
    return w.str();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string
result_digest(const core::ExperimentResult &result)
{
    const std::string bytes = core::serialize_result(result);
    return util::hex64(util::fnv1a(bytes.data(), bytes.size()));
}

std::string
values_digest(const std::vector<double> &values)
{
    std::string text;
    char buf[40];
    for (double v : values) {
        std::snprintf(buf, sizeof buf, "%.17g;", v);
        text += buf;
    }
    return util::hex64(util::fnv1a(text.data(), text.size()));
}

bool
conserved(const interval::IntervalHistogramSet &set)
{
    return set.total_length() == set.num_frames() * set.total_cycles();
}

bool
conserved(const core::ExperimentResult &result)
{
    return conserved(result.icache.intervals) &&
           conserved(result.dcache.intervals) &&
           (!result.l2cache || conserved(result.l2cache->intervals));
}

Expectations::Expectations(const std::string &path, bool regenerate)
    : regenerate_(regenerate)
{
    if (regenerate)
        return;
    std::string text;
    if (!util::read_file_bytes(path, text).ok())
        return;
    auto parsed = util::json_parse(text);
    if (!parsed || !parsed.value().is_object())
        return;
    const util::JsonValue *digests = parsed.value().find("digests");
    if (digests == nullptr || !digests->is_object())
        return;
    for (const auto &[key, value] : digests->object())
        if (value.is_string())
            digests_[key] = value.string_value();
}

bool
Expectations::matches(const std::string &key, const std::string &digest)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (regenerate_) {
        digests_[key] = digest;
        return true;
    }
    const auto it = digests_.find(key);
    return it != digests_.end() && it->second == digest;
}

std::string
Expectations::to_json() const
{
    util::JsonWriter w;
    w.begin_object();
    w.key("note").value(
        "FNV-1a digests of core::serialize_result and of evaluated "
        "savings, pinned at the benchmark's inputs; regenerate with "
        "`python3 perfbench/run.py --regenerate-digests`");
    w.key("digests").begin_object();
    for (const auto &[key, digest] : digests_)
        w.key(key).value(digest);
    w.end_object();
    w.end_object();
    return w.str();
}

namespace {

bool
pin_to(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

} // namespace

CpuPlacement::CpuPlacement()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0)
        return;
    mask_.resize(sizeof set);
    std::memcpy(mask_.data(), &set, sizeof set);
    saved_ = true;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set))
            cpus_.push_back(cpu);
}

CpuPlacement::~CpuPlacement()
{
    if (!saved_)
        return;
    cpu_set_t set;
    std::memcpy(&set, mask_.data(), sizeof set);
    (void)::sched_setaffinity(0, sizeof set, &set);
}

double
CpuPlacement::probe()
{
    // A dependent integer chain of about 0.15 ms on an idle core: it
    // runs at full speed only when nothing shares the physical core.
    const auto begun = Clock::now();
    std::uint64_t state = sink_, acc = 0;
    for (int i = 0; i < 100'000; ++i)
        acc += splitmix64(state) >> (acc & 7);
    sink_ += acc;
    return seconds_since(begun);
}

void
CpuPlacement::place_on_quietest()
{
    // A busy host frees some core within a few milliseconds more often
    // than not, so wait a few rounds for a probe as fast as the fastest
    // seen (the slack admits one step of the host's clock frequency).
    constexpr int kMaxRounds = 6;
    constexpr double kQuietSlack = 0.05;
    int best = -1;
    double best_s = 0.0;
    for (int round = 0; round < kMaxRounds; ++round) {
        best = -1;
        for (int cpu : cpus_) {
            if (!pin_to(cpu))
                continue;
            const double s = probe();
            if (best < 0 || s < best_s) {
                best = cpu;
                best_s = s;
            }
        }
        if (best < 0)
            return;
        if (fastest_s_ == 0.0 || best_s < fastest_s_)
            fastest_s_ = best_s;
        if (best_s <= fastest_s_ * (1.0 + kQuietSlack))
            break;
    }
    (void)pin_to(best);
}

double
minimum(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

double
peak_rss_mb()
{
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
environment_json(const Options &options)
{
    std::string load = "unknown";
    {
        std::ifstream in("/proc/loadavg");
        std::string a, b, c;
        if (in >> a >> b >> c)
            load = a + " " + b + " " + c;
    }
    util::JsonWriter w;
    w.begin_object();
    w.key("nproc").value(
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.key("loadavg").value(load);
    w.key("build_type").value(LEAKBENCH_BUILD_TYPE);
    w.key("compiler").value(LEAKBENCH_COMPILER);
    w.key("commit").value(options.commit);
    w.key("workload").value(options.workload);
    w.key("seed").value(options.seed);
    w.key("seconds").value(options.seconds);
    w.key("trace").value(options.trace);
    w.key("short_budget").value(options.short_budget);
    w.end_object();
    return w.str();
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace leakbench
