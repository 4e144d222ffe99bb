/**
 * @file
 * Decoding of serve-protocol "run" requests into ExperimentConfig,
 * plus the request fingerprint the daemon's dedup scheduler keys on.
 *
 * The wire schema is a strict subset of ExperimentConfig: everything a
 * remote client may set is validated here (benchmark names against the
 * suite, instruction budgets against the daemon's cap), everything it
 * may NOT set (jobs, cache_dir, keep_raw — all server-owned resources)
 * is rejected, and unknown keys are errors, mirroring the CLI's
 * unknown-flag policy: a silent typo would corrupt an experiment.
 *
 * The fingerprint reuses the artifact cache's config fingerprint
 * (core/artifact_cache.hpp), so two requests that dedupe to one
 * simulation are exactly the requests that would share cache entries.
 */

#ifndef LEAKBOUND_CORE_EXPERIMENT_REQUEST_HPP
#define LEAKBOUND_CORE_EXPERIMENT_REQUEST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace leakbound::core {

/** Ceiling a request's instruction budget must stay under by default. */
inline constexpr std::uint64_t kDefaultMaxRequestInstructions =
    64'000'000;

/** One decoded experiment request. */
struct ExperimentRequest
{
    /** Benchmarks to simulate, in response order (validated names). */
    std::vector<std::string> benchmarks;
    /**
     * The derived config.  jobs / cache_dir are left at their defaults
     * by the decoder; the scheduler stamps the server-owned values in
     * before running (they are excluded from fingerprints, so this
     * cannot split dedup groups).
     */
    ExperimentConfig config;
    /**
     * Whether the response should embed each result's full serialized
     * payload (hex of serialize_result) next to its digest.  Heavier
     * frames; clients use it to reconstruct byte-identical
     * ExperimentResults offline.
     */
    bool want_payload = false;
};

/**
 * Decode a "run" request object.  Accepted keys: "type" (ignored
 * here; the server dispatched on it), "benchmarks" (required,
 * non-empty string array of valid suite names), "instructions" (u64,
 * 1000..@p max_instructions), "nl_lead_time" (u64 cycles),
 * "collect_l2" (bool), "standard_edges" (bool, default true: absorb
 * standard_extra_edges() so any stock policy can evaluate the result),
 * "extra_edges" (u64 array), "payload" (bool), "core_count" (u64,
 * 1..core::kMaxCoreCount; cores sharing the L2 — values above 1
 * select the multicore engine and scale the per-request budget check
 * to instructions x core_count), and "workload_mix" (non-empty string
 * array of valid suite names whose length must equal core_count;
 * per-core benchmarks).  Anything else — unknown keys, wrong types,
 * out-of-range values, server-owned knobs like
 * "jobs"/"cache_dir"/"keep_raw" — is an InvalidArgument.
 */
util::Expected<ExperimentRequest>
decode_experiment_request(const util::JsonValue &body,
                          std::uint64_t max_instructions =
                              kDefaultMaxRequestInstructions);

/**
 * The dedup key: fingerprint_config(request.config) extended with the
 * benchmark list and the payload flag (responses with and without
 * payloads render differently, so they must not share one rendered
 * response even though they share cache entries underneath).
 */
std::uint64_t fingerprint_request(const ExperimentRequest &request);

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_EXPERIMENT_REQUEST_HPP
