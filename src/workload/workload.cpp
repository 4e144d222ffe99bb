/**
 * @file
 * The span contract's shared pieces (the default next_spans, span
 * expansion into µops, body appends) and the composite (multi-phase)
 * workload.
 */

#include "workload/workload.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "workload/data_pattern.hpp"

namespace leakbound::workload {

std::uint32_t
SpanBatch::append_body(Pc base, std::uint32_t begin, std::uint32_t end,
                       const std::uint32_t *slots, std::uint32_t &next_mem,
                       std::uint32_t mem_end, DataPattern *pattern)
{
    // Copy the body's memory ops in [begin, end), rebased to the span,
    // while the memory-op array has room; a memory op that is in range
    // but does not fit cuts the span just before it.
    const std::uint32_t first = mems;
    const std::uint32_t stop = std::min(mem_end, next_mem + (kMemOps - mems));
    const std::uint32_t rebase = slot(begin, false);
    std::uint32_t m = next_mem;
    for (; m < stop && offset(slots[m]) < end; ++m)
        mem_slot[mems++] = slots[m] - rebase;
    if (m < mem_end && offset(slots[m]) < end)
        end = offset(slots[m]);
    const std::uint32_t drawn = m - next_mem;
    if (drawn != 0)
        pattern->fill(&mem_addr[first], drawn);
    next_mem = m;
    span[spans++] = {base + Pc{begin} * kInstrBytes, end - begin, drawn};
    return end - begin;
}

std::uint64_t
Workload::next_spans(SpanBatch &out, std::uint64_t max_instructions)
{
    // Grow a span while next() continues it at the span step; any other
    // PC starts a new one.  Read an op only while the batch has room
    // for one more span and one more memory op, since either may be
    // what it turns out to need.
    std::uint64_t got = 0;
    Span *run = nullptr;
    trace::MicroOp op;
    while (got < max_instructions && !out.full() && next(op)) {
        if (run == nullptr ||
            op.pc != run->pc + Pc{run->instrs} * kInstrBytes) {
            run = &out.span[out.spans++];
            *run = {op.pc, 0, 0};
        }
        if (op.kind != trace::InstrKind::Op) {
            out.mem_slot[out.mems] = SpanBatch::slot(
                run->instrs, op.kind == trace::InstrKind::Store);
            out.mem_addr[out.mems++] = op.addr;
            ++run->mems;
        }
        ++run->instrs;
        ++got;
    }
    return got;
}

std::size_t
Workload::next_batch(trace::MicroOp *out, std::size_t max)
{
    SpanBatch batch;
    std::size_t got = 0;
    while (got < max) {
        batch.clear();
        if (next_spans(batch, max - got) == 0)
            break;
        std::uint32_t m = 0;
        for (std::uint32_t s = 0; s < batch.spans; ++s) {
            const Span &span = batch.span[s];
            trace::MicroOp *ops = out + got;
            for (std::uint32_t i = 0; i < span.instrs; ++i) {
                ops[i].pc = span.pc + Pc{i} * kInstrBytes;
                ops[i].kind = trace::InstrKind::Op;
                ops[i].addr = kInvalidAddr;
            }
            for (const std::uint32_t end = m + span.mems; m < end; ++m) {
                const std::uint32_t slot = batch.mem_slot[m];
                trace::MicroOp &op = ops[SpanBatch::offset(slot)];
                op.kind = SpanBatch::is_store(slot) ? trace::InstrKind::Store
                                                    : trace::InstrKind::Load;
                op.addr = batch.mem_addr[m];
            }
            got += span.instrs;
        }
    }
    return got;
}

CompositeWorkload::CompositeWorkload(std::string name,
                                     std::vector<Phase> phases)
    : name_(std::move(name)), phases_(std::move(phases))
{
    LEAKBOUND_ASSERT(!phases_.empty(), "composite needs phases");
    for (const Phase &p : phases_) {
        LEAKBOUND_ASSERT(p.child != nullptr, "composite phase is null");
        LEAKBOUND_ASSERT(p.quantum > 0, "composite quantum must be > 0");
    }
}

bool
CompositeWorkload::next(trace::MicroOp &op)
{
    // Rotate to the next phase once the quantum is exhausted; skip
    // phases whose child has (unusually) run dry.
    for (std::size_t attempts = 0; attempts <= phases_.size();
         ++attempts) {
        Phase &phase = phases_[current_];
        if (executed_in_phase_ >= phase.quantum) {
            current_ = (current_ + 1) % phases_.size();
            executed_in_phase_ = 0;
            continue;
        }
        if (phase.child->next(op)) {
            ++executed_in_phase_;
            return true;
        }
        current_ = (current_ + 1) % phases_.size();
        executed_in_phase_ = 0;
    }
    return false;
}

std::uint64_t
CompositeWorkload::next_spans(SpanBatch &out, std::uint64_t max_instructions)
{
    // Spans from the current phase, capped at its remaining quantum,
    // rotating on exhaustion exactly where the one-op path would.
    // `dry` counts consecutive phases that produced nothing, mirroring
    // next()'s give-up bound.
    std::uint64_t got = 0;
    std::size_t dry = 0;
    while (got < max_instructions && !out.full() && dry <= phases_.size()) {
        Phase &phase = phases_[current_];
        if (executed_in_phase_ >= phase.quantum) {
            current_ = (current_ + 1) % phases_.size();
            executed_in_phase_ = 0;
            continue;
        }
        const std::uint64_t g = phase.child->next_spans(
            out, std::min(max_instructions - got,
                          phase.quantum - executed_in_phase_));
        executed_in_phase_ += g;
        got += g;
        if (g == 0) {
            current_ = (current_ + 1) % phases_.size();
            executed_in_phase_ = 0;
            ++dry;
        } else {
            dry = 0;
        }
    }
    return got;
}

void
CompositeWorkload::reset()
{
    for (Phase &p : phases_)
        p.child->reset();
    current_ = 0;
    executed_in_phase_ = 0;
}

} // namespace leakbound::workload
