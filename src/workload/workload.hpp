/**
 * @file
 * Workload abstraction: a deterministic generator of the dynamic
 * instruction stream (PCs + data addresses) that the timing core
 * executes.  Synthetic programs (loop nests, call graphs) and trace
 * replays all implement this interface.
 */

#ifndef LEAKBOUND_WORKLOAD_WORKLOAD_HPP
#define LEAKBOUND_WORKLOAD_WORKLOAD_HPP

#include <memory>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace leakbound::workload {

/** A generator of dynamic instructions. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name (e.g. "gzip"). */
    virtual std::string name() const = 0;

    /**
     * Produce the next dynamic instruction.  @return false when the
     * stream is exhausted (synthetic programs are typically endless;
     * the core bounds execution by instruction count).
     */
    virtual bool next(trace::MicroOp &op) = 0;

    /**
     * Produce up to @p max instructions into @p out, returning the
     * number produced (0 = exhausted).  The batch is *exactly* the
     * stream next() would produce — one virtual call amortized over a
     * block instead of one per µop (the simulation kernel's fetch ring
     * refills through this; see DESIGN.md "Simulation kernel").  The
     * default forwards to next() one op at a time; generators with
     * cheap inner loops override it with a block-filling loop.
     */
    virtual std::size_t
    next_batch(trace::MicroOp *out, std::size_t max)
    {
        std::size_t got = 0;
        while (got < max && next(out[got]))
            ++got;
        return got;
    }

    /** Restart the stream deterministically from the beginning. */
    virtual void reset() = 0;
};

/** Owning workload handle. */
using WorkloadPtr = std::unique_ptr<Workload>;

/**
 * Round-robin phase interleaver: runs each child for its quantum of
 * instructions, then moves to the next, looping forever.  Used to give
 * benchmarks multi-phase behaviour (e.g. parse vs optimize phases),
 * which creates the very long cross-phase idle intervals the 180nm
 * results depend on.
 */
class CompositeWorkload final : public Workload
{
  public:
    /** One phase: a child workload and its per-visit quantum. */
    struct Phase
    {
        WorkloadPtr child;
        std::uint64_t quantum;
    };

    CompositeWorkload(std::string name, std::vector<Phase> phases);

    std::string name() const override { return name_; }
    bool next(trace::MicroOp &op) override;
    std::size_t next_batch(trace::MicroOp *out, std::size_t max) override;
    void reset() override;

  private:
    std::string name_;
    std::vector<Phase> phases_;
    std::size_t current_ = 0;
    std::uint64_t executed_in_phase_ = 0;
};

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_WORKLOAD_HPP
