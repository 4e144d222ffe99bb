/**
 * @file
 * Workload abstraction: a deterministic generator of the dynamic
 * instruction stream (PCs + data addresses) that the timing core
 * executes.  Synthetic programs (loop nests, call graphs) and trace
 * replays all implement this interface.
 *
 * A workload hands the core its stream as *spans* (next_spans): each
 * span is a straight-line run of instructions kInstrBytes apart, plus
 * that run's loads and stores in order.  The core forms fetch groups
 * from spans with arithmetic and touches only the memory ops, so no
 * per-instruction record exists on the simulation path.  next() stays
 * as the one-op reference the spans must reproduce, and next_batch()
 * expands spans back into µops for callers that want them.
 */

#ifndef LEAKBOUND_WORKLOAD_WORKLOAD_HPP
#define LEAKBOUND_WORKLOAD_WORKLOAD_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace leakbound::workload {

class DataPattern;

/** Bytes between consecutive instructions of a span. */
constexpr std::uint32_t kInstrBytes = 4;

/**
 * A straight-line run: @c instrs instructions starting at @c pc,
 * kInstrBytes apart, whose @c mems loads and stores are the next
 * entries of the SpanBatch memory-op arrays.
 */
struct Span
{
    Pc pc;
    std::uint32_t instrs; ///< at least 1
    std::uint32_t mems;
};

/**
 * Spans and their memory ops, in stream order.  Memory op i is
 * mem_addr[i] with mem_slot[i] = offset << 1 | is_store, the offset
 * counting instructions from the start of its span.  The capacities
 * are constants; next_spans() stops when either array is full.
 */
struct SpanBatch
{
    static constexpr std::uint32_t kSpans = 32;
    static constexpr std::uint32_t kMemOps = 256;

    static constexpr std::uint32_t
    slot(std::uint32_t offset, bool is_store)
    {
        return offset << 1 | (is_store ? 1u : 0u);
    }
    static constexpr std::uint32_t offset(std::uint32_t slot)
    {
        return slot >> 1;
    }
    static constexpr bool is_store(std::uint32_t slot) { return slot & 1; }

    void
    clear()
    {
        spans = 0;
        mems = 0;
    }

    /** No room for another span, or for another memory op. */
    bool full() const { return spans == kSpans || mems == kMemOps; }

    /**
     * Append instructions [@p begin, @p end) of a straight-line body at
     * @p base as one span, cut short where the memory-op array fills;
     * @return the instructions appended.  @p slots holds the body's
     * memory ops as body-relative slots, @p next_mem the first one at
     * or after @p begin (advanced past those appended) and @p mem_end
     * one past the body's last; their addresses are drawn from
     * @p pattern in op order.  Requires !full() and begin < end.
     */
    std::uint32_t append_body(Pc base, std::uint32_t begin,
                              std::uint32_t end, const std::uint32_t *slots,
                              std::uint32_t &next_mem, std::uint32_t mem_end,
                              DataPattern *pattern);

    std::uint32_t spans = 0; ///< spans in use
    std::uint32_t mems = 0;  ///< memory ops in use
    std::array<Span, kSpans> span;
    std::array<std::uint32_t, kMemOps> mem_slot;
    std::array<Addr, kMemOps> mem_addr;
};

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
     * the core bounds execution by instruction count).  This is the
     * per-op reference: next_spans() yields exactly this stream.
     */
    virtual bool next(trace::MicroOp &op) = 0;

    /**
     * Append the next spans to @p out, totalling at most
     * @p max_instructions instructions, stopping early once out is
     * full(); @return the instructions appended (0 = exhausted, or no
     * room).  A block or body cut by the cap or the capacity resumes
     * mid-body on the next call.  Expanded, the spans are exactly the
     * ops next() would produce, pattern draws included.  The default
     * builds spans from next(), one op at a time.
     */
    virtual std::uint64_t next_spans(SpanBatch &out,
                                     std::uint64_t max_instructions);

    /**
     * Produce up to @p max instructions into @p out, returning the
     * number produced (0 = exhausted): next_spans() expanded into
     * µops, so again exactly the stream next() would produce.
     */
    std::size_t next_batch(trace::MicroOp *out, std::size_t max);

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
    std::uint64_t next_spans(SpanBatch &out,
                             std::uint64_t max_instructions) override;
    void reset() override;

  private:
    std::string name_;
    std::vector<Phase> phases_;
    std::size_t current_ = 0;
    std::uint64_t executed_in_phase_ = 0;
};

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_WORKLOAD_HPP
