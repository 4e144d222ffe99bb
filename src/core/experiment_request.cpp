/**
 * @file
 * Implementation of serve-request decoding and fingerprinting.
 */

#include "core/experiment_request.hpp"

#include <algorithm>

#include "core/artifact_cache.hpp"
#include "util/fingerprint.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::core {

namespace {

using util::ErrorKind;
using util::JsonValue;
using util::Status;

Status
bad_request(const std::string &what)
{
    return Status(ErrorKind::InvalidArgument, what);
}

/** Floor below which a simulation tells you nothing about a policy. */
constexpr std::uint64_t kMinRequestInstructions = 1'000;

} // namespace

util::Expected<ExperimentRequest>
decode_experiment_request(const util::JsonValue &body,
                          std::uint64_t max_instructions)
{
    if (!body.is_object())
        return bad_request("request body must be a JSON object");

    ExperimentRequest request;
    bool standard_edges = true;
    bool saw_benchmarks = false;

    for (const auto &[key, value] : body.object()) {
        if (key == "type") {
            // The server dispatched on this before calling us.
            continue;
        }
        if (key == "benchmarks") {
            if (!value.is_array() || value.array().empty())
                return bad_request(
                    "'benchmarks' must be a non-empty array");
            for (const JsonValue &name : value.array()) {
                if (!name.is_string())
                    return bad_request("'benchmarks' entries must be "
                                       "strings");
                if (!workload::is_benchmark(name.string_value()))
                    return bad_request("unknown benchmark: '" +
                                       name.string_value() + "'");
                request.benchmarks.push_back(name.string_value());
            }
            saw_benchmarks = true;
            continue;
        }
        if (key == "instructions") {
            if (!value.is_u64())
                return bad_request("'instructions' must be a "
                                   "non-negative integer");
            const std::uint64_t n = value.u64_value();
            if (n < kMinRequestInstructions || n > max_instructions) {
                return bad_request(
                    "'instructions' out of range [" +
                    std::to_string(kMinRequestInstructions) + ", " +
                    std::to_string(max_instructions) + "]: " +
                    std::to_string(n));
            }
            request.config.instructions = n;
            continue;
        }
        if (key == "nl_lead_time") {
            if (!value.is_u64())
                return bad_request("'nl_lead_time' must be a "
                                   "non-negative integer");
            request.config.nl_lead_time = value.u64_value();
            continue;
        }
        if (key == "collect_l2") {
            if (!value.is_bool())
                return bad_request("'collect_l2' must be a bool");
            request.config.collect_l2 = value.bool_value();
            continue;
        }
        if (key == "standard_edges") {
            if (!value.is_bool())
                return bad_request("'standard_edges' must be a bool");
            standard_edges = value.bool_value();
            continue;
        }
        if (key == "extra_edges") {
            if (!value.is_array())
                return bad_request("'extra_edges' must be an array");
            for (const JsonValue &edge : value.array()) {
                if (!edge.is_u64())
                    return bad_request("'extra_edges' entries must be "
                                       "non-negative integers");
                request.config.extra_edges.push_back(edge.u64_value());
            }
            continue;
        }
        if (key == "payload") {
            if (!value.is_bool())
                return bad_request("'payload' must be a bool");
            request.want_payload = value.bool_value();
            continue;
        }
        if (key == "core_count") {
            if (!value.is_u64())
                return bad_request("'core_count' must be a "
                                   "non-negative integer");
            const std::uint64_t n = value.u64_value();
            if (n < 1 || n > kMaxCoreCount) {
                return bad_request("'core_count' out of range [1, " +
                                   std::to_string(kMaxCoreCount) +
                                   "]: " + std::to_string(n));
            }
            request.config.core_count = static_cast<std::uint32_t>(n);
            continue;
        }
        if (key == "workload_mix") {
            if (!value.is_array() || value.array().empty())
                return bad_request(
                    "'workload_mix' must be a non-empty array");
            for (const JsonValue &name : value.array()) {
                if (!name.is_string())
                    return bad_request("'workload_mix' entries must be "
                                       "strings");
                if (!workload::is_benchmark(name.string_value()))
                    return bad_request("unknown benchmark in "
                                       "'workload_mix': '" +
                                       name.string_value() + "'");
                request.config.workload_mix.push_back(
                    name.string_value());
            }
            continue;
        }
        if (key == "jobs" || key == "cache_dir" || key == "keep_raw") {
            return bad_request("'" + key +
                               "' is server-owned and cannot be set "
                               "by a request");
        }
        return bad_request("unknown request key: '" + key + "'");
    }

    if (!saw_benchmarks)
        return bad_request("request is missing 'benchmarks'");

    // Cross-field multicore checks (mix length vs core_count), typed
    // just like the per-key ones above.
    if (util::Status multi = request.config.validate(); !multi.ok())
        return bad_request(multi.message());
    // The instruction budget is per core; keep a multicore request's
    // total simulated work under the same admission ceiling a
    // single-core request gets.
    if (request.config.core_count > 1 &&
        request.config.instructions >
            max_instructions / request.config.core_count) {
        return bad_request(
            "'instructions' x 'core_count' exceeds the per-request "
            "budget of " + std::to_string(max_instructions));
    }

    if (standard_edges) {
        // Union in every stock policy threshold, exactly like the
        // bench binaries, so the result serves any standard evaluation
        // and — crucially — shares cache entries with them.
        std::vector<Cycles> edges = standard_extra_edges();
        edges.insert(edges.end(), request.config.extra_edges.begin(),
                     request.config.extra_edges.end());
        request.config.extra_edges = std::move(edges);
    }
    return request;
}

std::uint64_t
fingerprint_request(const ExperimentRequest &request)
{
    util::Fingerprint fp;
    fp.mix_u64(fingerprint_config(request.config));
    fp.mix_u64(request.benchmarks.size());
    for (const std::string &name : request.benchmarks)
        fp.mix_string(name);
    fp.mix_u64(request.want_payload ? 1 : 0);
    return fp.digest();
}

} // namespace leakbound::core
