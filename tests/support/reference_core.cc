#include "tests/support/reference_core.h"

#include <algorithm>

namespace vtrans::uarch {

void
ReferenceCoreModel::referenceDispatch(uint32_t count)
{
    TimingStage& t = timing();
    if (t.attr_cur_ == nullptr && t.next_phase_ == UINT64_MAX) {
        // The pre-fast-forward hot path: one step per retired
        // instruction (retained for the differential suite).
        for (uint32_t i = 0; i < count; ++i) {
            // Frontend availability gates dispatch.
            if (t.fetch_ready_ > t.cur_cycle_) {
                t.advanceTo(t.fetch_ready_, t.fetch_reason_);
                t.drain();
            }
            ++t.stats_.slots_retiring;
            ++t.stats_.instructions;
            ++t.slots_in_cycle_;
            if (t.slots_in_cycle_ == static_cast<uint32_t>(params_.width)) {
                ++t.cur_cycle_;
                t.slots_in_cycle_ = 0;
                t.drain();
            }
        }
        return;
    }
    // Instrumented reference path: per-site charges accumulate in locals
    // and post once after the loop; the phase check stays per
    // instruction so samples land on window boundaries.
    uint64_t cycles_rolled = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (t.fetch_ready_ > t.cur_cycle_) {
            t.advanceTo(t.fetch_ready_, t.fetch_reason_);
            t.drain();
        }
        ++t.stats_.slots_retiring;
        ++t.stats_.instructions;
        if (t.stats_.instructions >= t.next_phase_) {
            t.capturePhase();
        }
        ++t.slots_in_cycle_;
        if (t.slots_in_cycle_ == static_cast<uint32_t>(params_.width)) {
            ++t.cur_cycle_;
            t.slots_in_cycle_ = 0;
            ++cycles_rolled;
            t.drain();
        }
    }
    if (t.attr_cur_ != nullptr) {
        t.attr_cur_->slots_retiring += count;
        t.attr_cur_->cycles += cycles_rolled;
    }
}

void
ReferenceCoreModel::referenceResolveFrontend()
{
    TimingStage& t = timing();
    if (t.fetch_ready_ > t.cur_cycle_) {
        t.advanceTo(t.fetch_ready_, t.fetch_reason_);
        t.drain();
    }
}

void
ReferenceCoreModel::onBlock(const trace::CodeSite& site)
{
    TimingStage& t = timing();
    MemoryStage& m = memory();
    // Pre-fast-forward implementation: recompute the line span per event
    // and walk every line through the full cache access path.
    if (t.attr_cur_ != nullptr) {
        t.attr_cur_ = &t.attrAt(site.id);
    }
    const uint32_t line = params_.l1i.line_bytes;
    const uint64_t first = site.address / line;
    const uint64_t last = (site.address + site.bytes - 1) / line;
    int fetch_penalty = 0;
    for (uint64_t l = first; l <= last; ++l) {
        ++t.stats_.l1i_accesses;
        const AccessResult r = m.caches_.fetchAccess(l * line);
        if (t.attr_cur_ != nullptr) {
            ++t.attr_cur_->l1i_accesses;
        }
        if (r.l1_miss) {
            ++t.stats_.l1i_misses;
            if (t.attr_cur_ != nullptr) {
                ++t.attr_cur_->l1i_misses;
            }
            fetch_penalty =
                std::max(fetch_penalty,
                         r.latency - params_.latencies.l1);
        }
    }
    if (!m.itlb_.access(site.address)) {
        ++t.stats_.itlb_misses;
        if (t.attr_cur_ != nullptr) {
            ++t.attr_cur_->itlb_misses;
        }
        fetch_penalty += params_.latencies.itlb_miss;
    }
    if (fetch_penalty > 0) {
        const uint64_t ready = t.cur_cycle_ + fetch_penalty;
        if (ready > t.fetch_ready_) {
            t.fetch_ready_ = ready;
            t.fetch_reason_ = StallCause::Frontend;
        }
    }

    const bool load_dep = site.kind == trace::SiteKind::BlockLoadDep;
    uint32_t remaining = site.instructions;
    const uint32_t max_chunk = static_cast<uint32_t>(
        std::min(params_.rob_size, params_.rs_size));
    while (remaining > 0) {
        const uint32_t chunk = std::min(remaining, max_chunk);
        referenceResolveFrontend();
        t.ensureRobSpace(chunk);
        t.ensureRsSpace(chunk);
        uint64_t issue = t.cur_cycle_ + 1;
        if (load_dep && t.last_load_complete_ > issue) {
            issue = t.last_load_complete_;
        }
        t.robPush(issue, chunk, load_dep);
        t.rsPush(std::min(issue, t.cur_cycle_ + 15), chunk, load_dep);
        referenceDispatch(chunk);
        remaining -= chunk;
    }
}

void
ReferenceCoreModel::onBranch(const trace::CodeSite& site, bool taken)
{
    TimingStage& t = timing();
    MemoryStage& m = memory();
    // Pre-fast-forward implementation: separate predict() and update()
    // virtual calls.
    if (t.attr_cur_ != nullptr) {
        t.attr_cur_ = &t.attrAt(site.id);
        ++t.attr_cur_->branches;
    }
    ++t.stats_.branches;
    const bool predicted = m.predictor_->predict(site.address);
    m.predictor_->update(site.address, taken);

    referenceResolveFrontend();
    t.ensureRobSpace(1);
    t.ensureRsSpace(1);

    uint64_t resolve = t.cur_cycle_ + 1;
    if (site.kind == trace::SiteKind::BranchLoadDep) {
        resolve = std::max(resolve, t.last_load_complete_);
    }

    t.robPush(resolve, 1, false);
    t.rsPush(std::min(resolve, t.cur_cycle_ + 15), 1,
           site.kind == trace::SiteKind::BranchLoadDep);
    referenceDispatch(1);

    if (predicted != taken) {
        ++t.stats_.branch_mispredicts;
        if (t.attr_cur_ != nullptr) {
            ++t.attr_cur_->branch_mispredicts;
        }
        const uint64_t ready =
            resolve + static_cast<uint64_t>(params_.mispredict_penalty);
        if (ready > t.fetch_ready_) {
            t.fetch_ready_ = ready;
            t.fetch_reason_ = StallCause::BadSpeculation;
        }
    } else if (taken) {
        const bool btb_hit = m.btb_.access(site.address);
        if (!btb_hit) {
            ++t.stats_.btb_misses;
            if (t.attr_cur_ != nullptr) {
                ++t.attr_cur_->btb_misses;
            }
        }
        const int bubble =
            btb_hit ? params_.taken_bubble : params_.btb_miss_penalty;
        const uint64_t ready = t.cur_cycle_ + bubble;
        if (ready > t.fetch_ready_) {
            t.fetch_ready_ = ready;
            t.fetch_reason_ = StallCause::Frontend;
        }
    }
}

void
ReferenceCoreModel::onLoad(uint64_t addr, uint32_t bytes)
{
    TimingStage& t = timing();
    MemoryStage& m = memory();
    // Pre-fast-forward implementation: unconditional MSHR pruning scan.
    referenceResolveFrontend();
    t.ensureRobSpace(1);
    t.ensureRsSpace(1);
    const uint32_t line = params_.l1d.line_bytes;
    const uint64_t first = addr / line;
    const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
    int latency = params_.latencies.l1;
    for (uint64_t l = first; l <= last; ++l) {
        ++t.stats_.l1d_accesses;
        const AccessResult r = m.caches_.dataAccess(l * line);
        if (t.attr_cur_ != nullptr) {
            ++t.attr_cur_->l1d_accesses;
            t.attr_cur_->l1d_misses += r.l1_miss ? 1 : 0;
            t.attr_cur_->l2_misses += r.l2_miss ? 1 : 0;
            t.attr_cur_->l3_misses += r.l3_miss ? 1 : 0;
        }
        if (r.l1_miss) {
            ++t.stats_.l1d_misses;
        }
        if (r.l2_miss) {
            ++t.stats_.l2_misses;
        }
        if (r.l3_miss) {
            ++t.stats_.l3_misses;
        }
        latency = std::max(latency, r.latency);
    }

    uint64_t complete = t.cur_cycle_ + latency;
    if (latency > params_.latencies.l1) {
        while (!t.mshr_.empty() && t.mshr_.front() <= t.cur_cycle_) {
            t.mshr_.pop_front();
        }
        if (static_cast<int>(t.mshr_.size()) >= params_.mshr_entries) {
            complete = t.mshr_.front() + latency;
        }
        t.mshr_.push_back(complete);
    }
    t.last_load_complete_ = complete;
    t.robPush(complete, 1, true);
    t.rsPush(t.cur_cycle_ + std::min(latency, 15), 1, true);
    referenceDispatch(1);
}

void
ReferenceCoreModel::onStore(uint64_t addr, uint32_t bytes)
{
    TimingStage& t = timing();
    MemoryStage& m = memory();
    // Pre-fast-forward implementation: division-based line math and the
    // store-buffer push open-coded (pre-sbPush).
    referenceResolveFrontend();
    t.ensureRobSpace(1);
    t.ensureRsSpace(1);
    t.ensureSbSpace(1);
    const uint32_t line = params_.l1d.line_bytes;
    const uint64_t first = addr / line;
    const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
    int latency = params_.latencies.l1;
    for (uint64_t l = first; l <= last; ++l) {
        ++t.stats_.l1d_accesses;
        const AccessResult r = m.caches_.dataAccess(l * line); // write-alloc
        if (t.attr_cur_ != nullptr) {
            ++t.attr_cur_->l1d_accesses;
            t.attr_cur_->l1d_misses += r.l1_miss ? 1 : 0;
            t.attr_cur_->l2_misses += r.l2_miss ? 1 : 0;
            t.attr_cur_->l3_misses += r.l3_miss ? 1 : 0;
        }
        if (r.l1_miss) {
            ++t.stats_.l1d_misses;
        }
        if (r.l2_miss) {
            ++t.stats_.l2_misses;
        }
        if (r.l3_miss) {
            ++t.stats_.l3_misses;
        }
        latency = std::max(latency, r.latency);
    }

    const uint64_t drain_time = t.cur_cycle_ + latency;
    const uint64_t drain_monotone = std::max(drain_time, t.sb_last_drain_);
    t.sb_last_drain_ = drain_monotone;
    if (!t.sb_.empty() && t.sb_.back().time == drain_monotone) {
        t.sb_.back().count += 1;
    } else {
        t.sb_.push_back({drain_monotone, 1, true});
    }
    ++t.sb_count_;

    t.robPush(t.cur_cycle_ + 1, 1, false);
    t.rsPush(t.cur_cycle_ + 1, 1, false);
    referenceDispatch(1);
}

void
ReferenceCoreModel::onBatch(const trace::ProbeEvent* events, size_t count)
{
    // Replay through the per-event entry points above.
    ProbeSink::onBatch(events, count);
}

} // namespace vtrans::uarch
