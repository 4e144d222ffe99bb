/**
 * @file
 * Implementation of the dedup/backpressure scheduler: admission (LRU
 * lookup, dedup join, deadline shed, queue bound), the worker loop,
 * and completion fan-out to the waiters' callbacks.
 */

#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "serve/protocol.hpp"

namespace leakbound::serve {

namespace {

/** Accounting overhead per LRU entry (list/map nodes, shared_ptr). */
constexpr std::size_t kLruEntryOverhead = 64;

} // namespace

Scheduler::Scheduler(SchedulerConfig config) : config_(std::move(config))
{
    job_ms_ewma_ = config_.assumed_job_ms;
    const unsigned workers = config_.workers == 0 ? 1 : config_.workers;
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

Scheduler::~Scheduler()
{
    drain();
}

std::shared_ptr<const std::string>
Scheduler::lru_lookup(std::uint64_t fingerprint)
{
    auto it = lru_index_.find(fingerprint);
    if (it == lru_index_.end())
        return nullptr;
    lru_list_.splice(lru_list_.begin(), lru_list_, it->second);
    return lru_list_.front().response;
}

void
Scheduler::lru_insert(std::uint64_t fingerprint,
                      std::shared_ptr<const std::string> response)
{
    if (config_.response_cache_bytes == 0 || response == nullptr)
        return;
    const std::size_t cost = response->size() + kLruEntryOverhead;
    if (cost > config_.response_cache_bytes)
        return; // one response bigger than the whole budget
    if (auto it = lru_index_.find(fingerprint); it != lru_index_.end()) {
        // A racing twin re-rendered the same key (identical bytes by
        // construction): refresh recency, keep one copy.
        lru_list_.splice(lru_list_.begin(), lru_list_, it->second);
        return;
    }
    lru_list_.push_front(LruEntry{fingerprint, std::move(response)});
    lru_index_.emplace(fingerprint, lru_list_.begin());
    lru_bytes_ += cost;
    while (lru_bytes_ > config_.response_cache_bytes &&
           !lru_list_.empty()) {
        const LruEntry &victim = lru_list_.back();
        lru_bytes_ -= victim.response->size() + kLruEntryOverhead;
        lru_index_.erase(victim.fingerprint);
        lru_list_.pop_back();
        ++counters_.response_lru_evictions;
    }
}

Scheduler::Admission
Scheduler::admit(core::ExperimentRequest &&request, std::uint64_t fingerprint)
{
    Admission admission;
    ++counters_.submitted;
    if (draining_) {
        ++counters_.rejected_shutting_down;
        admission.rejected =
            util::Status(util::ErrorKind::ShuttingDown,
                         "daemon is draining; request not admitted");
        return admission;
    }

    // Past-fingerprint hit: the rendered bytes of a completed twin are
    // still resident — answer immediately, bypassing the queue, the
    // artifact cache and the renderer.
    if (auto hit = lru_lookup(fingerprint); hit != nullptr) {
        ++counters_.response_lru_hits;
        ++counters_.served;
        admission.immediate = std::move(hit);
        return admission;
    }

    if (auto it = inflight_.find(fingerprint); it != inflight_.end()) {
        // An identical request is already admitted: join it.  The
        // waiter gets the same rendered response object, so dedup
        // groups are byte-identical by construction.
        admission.job = it->second;
        ++counters_.dedup_hits;
        return admission;
    }

    // Deadline shed: when the backlog says this request cannot finish
    // in time, rejecting now is strictly kinder than queueing it into
    // a guaranteed timeout.  Joins and LRU hits never reach here.
    if (request.deadline_ms > 0 && job_ms_ewma_ > 0.0) {
        const unsigned workers =
            config_.workers == 0 ? 1 : config_.workers;
        const double backlog =
            static_cast<double>(queue_.size()) +
            0.5 * static_cast<double>(counters_.running) + 1.0;
        const double estimate_ms = job_ms_ewma_ * backlog / workers;
        if (estimate_ms > static_cast<double>(request.deadline_ms)) {
            ++counters_.rejected_deadline;
            admission.rejected = util::Status(
                util::ErrorKind::Overloaded,
                "deadline " + std::to_string(request.deadline_ms) +
                    " ms unmeetable (estimated " +
                    std::to_string(
                        static_cast<std::uint64_t>(estimate_ms)) +
                    " ms to completion); retry later or raise the "
                    "deadline");
            return admission;
        }
    }

    if (queue_.size() >= config_.max_queue) {
        ++counters_.rejected_overloaded;
        admission.rejected = util::Status(
            util::ErrorKind::Overloaded,
            "admission queue full (" +
                std::to_string(config_.max_queue) +
                " requests waiting); retry later");
        return admission;
    }

    auto job = std::make_shared<Job>();
    job->request = std::move(request);
    job->fingerprint = fingerprint;
    inflight_.emplace(fingerprint, job);
    queue_.push_back(job);
    ++counters_.queue_depth;
    cv_.notify_all();
    admission.job = std::move(job);
    return admission;
}

void
Scheduler::submit_async(core::ExperimentRequest request, Completion done)
{
    // Hashing the request is the costliest part of admission; every
    // event loop admits here, so it stays outside the lock.
    const std::uint64_t fingerprint = core::fingerprint_request(request);
    std::shared_ptr<const std::string> immediate;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Admission admission = admit(std::move(request), fingerprint);
        if (admission.job != nullptr) {
            admission.job->callbacks.push_back(std::move(done));
            return;
        }
        immediate =
            admission.immediate != nullptr
                ? std::move(admission.immediate)
                : std::make_shared<const std::string>(
                      render_error(admission.rejected));
    }
    // Outside the lock: the callback may re-enter the scheduler.
    done(std::move(immediate));
}

void
Scheduler::finish_job(const std::shared_ptr<Job> &job, Rendered rendered,
                      std::unique_lock<std::mutex> &lock)
{
    --counters_.running;
    inflight_.erase(job->fingerprint);
    if (rendered.cacheable)
        lru_insert(job->fingerprint, rendered.response);
    std::vector<Completion> callbacks;
    callbacks.swap(job->callbacks);
    counters_.served += callbacks.size();

    lock.unlock();
    for (Completion &callback : callbacks)
        callback(rendered.response);
    lock.lock();
}

void
Scheduler::worker_loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (draining_)
                return;
            continue;
        }
        std::shared_ptr<Job> job = std::move(queue_.front());
        queue_.pop_front();
        --counters_.queue_depth;
        ++counters_.running;
        ++counters_.simulations;

        core::ExperimentRequest request = job->request;
        const std::uint64_t fingerprint = job->fingerprint;
        lock.unlock();
        const auto begun = std::chrono::steady_clock::now();
        Rendered rendered = execute(request, fingerprint);
        const double job_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - begun)
                .count();
        lock.lock();

        // The deadline shedder's cost model: a slow-moving EWMA of
        // job wall times, seeded by config (0 = learn from here).
        job_ms_ewma_ = job_ms_ewma_ <= 0.0
                           ? job_ms
                           : 0.7 * job_ms_ewma_ + 0.3 * job_ms;
        finish_job(job, std::move(rendered), lock);
    }
}

Scheduler::Rendered
Scheduler::execute(const core::ExperimentRequest &request,
                   std::uint64_t fingerprint)
{
    Rendered rendered;
    try {
        core::ExperimentConfig config = request.config;
        // Server-owned knobs the wire decoder refused to accept, plus
        // the drain contract: a started experiment always completes.
        config.jobs = config_.suite_jobs;
        config.cache_dir = config_.cache_dir;
        config.ignore_interrupts = true;

        core::SuiteOutcome outcome = core::run_suite_isolated(
            request.benchmarks, config, config_.before_job);

        std::uint64_t loaded = 0;
        std::uint64_t simulated = 0;
        for (const auto &slot : outcome.slots) {
            if (!slot)
                continue;
            if (slot->from_cache)
                ++loaded;
            else
                ++simulated;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            counters_.cache_hits += loaded;
            counters_.sim_runs += simulated;
        }
        // Only flawless outcomes are worth pinning in the LRU: a
        // degraded or partially-failed response must not outlive the
        // transient trouble that produced it.
        rendered.cacheable = !outcome.interrupted &&
                             outcome.failures.empty() &&
                             !outcome.cache.degraded;
        rendered.response = std::make_shared<const std::string>(
            render_run_response(outcome, request, fingerprint));
    } catch (const util::StatusError &error) {
        rendered.response = std::make_shared<const std::string>(
            render_error(error.status()));
    } catch (const std::exception &error) {
        rendered.response =
            std::make_shared<const std::string>(render_error(
                util::Status(util::ErrorKind::Internal, error.what())));
    }
    return rendered;
}

void
Scheduler::drain()
{
    std::vector<std::thread> workers;
    std::vector<Completion> callbacks;
    std::shared_ptr<const std::string> rejected;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true;
        workers.swap(workers_); // a concurrent drain() joins nothing
        // Queued-not-started jobs never run: their waiters all get one
        // shared ShuttingDown response, counted (and collected to
        // fire) here.
        if (!queue_.empty()) {
            rejected = std::make_shared<const std::string>(
                render_error(util::Status(
                    util::ErrorKind::ShuttingDown,
                    "daemon drained before this request started")));
            for (const std::shared_ptr<Job> &job : queue_) {
                inflight_.erase(job->fingerprint);
                counters_.rejected_shutting_down +=
                    job->callbacks.size();
                for (Completion &callback : job->callbacks)
                    callbacks.push_back(std::move(callback));
                job->callbacks.clear();
            }
            counters_.queue_depth = 0;
            queue_.clear();
        }
        cv_.notify_all();
    }
    for (Completion &callback : callbacks)
        callback(rejected);
    for (std::thread &worker : workers)
        worker.join();
}

SchedulerCounters
Scheduler::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SchedulerCounters snapshot = counters_;
    snapshot.response_lru_entries = lru_list_.size();
    snapshot.response_lru_bytes = lru_bytes_;
    return snapshot;
}

} // namespace leakbound::serve
