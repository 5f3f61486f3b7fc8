#include "tests/support/reference_core.h"

#include <algorithm>

namespace vtrans::uarch {

void
ReferenceCoreModel::referenceDispatch(uint32_t count)
{
    if (attr_cur_ == nullptr && next_phase_ == UINT64_MAX) {
        // The pre-fast-forward hot path: one step per retired
        // instruction (retained for the differential suite).
        for (uint32_t i = 0; i < count; ++i) {
            // Frontend availability gates dispatch.
            if (fetch_ready_ > cur_cycle_) {
                advanceTo(fetch_ready_, fetch_reason_);
                drain();
            }
            ++stats_.slots_retiring;
            ++stats_.instructions;
            ++slots_in_cycle_;
            if (slots_in_cycle_ == static_cast<uint32_t>(params_.width)) {
                ++cur_cycle_;
                slots_in_cycle_ = 0;
                drain();
            }
        }
        return;
    }
    // Instrumented reference path: per-site charges accumulate in locals
    // and post once after the loop; the phase check stays per
    // instruction so samples land on window boundaries.
    uint64_t cycles_rolled = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (fetch_ready_ > cur_cycle_) {
            advanceTo(fetch_ready_, fetch_reason_);
            drain();
        }
        ++stats_.slots_retiring;
        ++stats_.instructions;
        if (stats_.instructions >= next_phase_) {
            capturePhase();
        }
        ++slots_in_cycle_;
        if (slots_in_cycle_ == static_cast<uint32_t>(params_.width)) {
            ++cur_cycle_;
            slots_in_cycle_ = 0;
            ++cycles_rolled;
            drain();
        }
    }
    if (attr_cur_ != nullptr) {
        attr_cur_->slots_retiring += count;
        attr_cur_->cycles += cycles_rolled;
    }
}

void
ReferenceCoreModel::referenceResolveFrontend()
{
    if (fetch_ready_ > cur_cycle_) {
        advanceTo(fetch_ready_, fetch_reason_);
        drain();
    }
}

void
ReferenceCoreModel::onBlock(const trace::CodeSite& site)
{
    // Pre-fast-forward implementation: recompute the line span per event
    // and walk every line through the full cache access path.
    if (attr_cur_ != nullptr) {
        attr_cur_ = &attrAt(site.id);
    }
    const uint32_t line = params_.l1i.line_bytes;
    const uint64_t first = site.address / line;
    const uint64_t last = (site.address + site.bytes - 1) / line;
    int fetch_penalty = 0;
    for (uint64_t l = first; l <= last; ++l) {
        ++stats_.l1i_accesses;
        const AccessResult r = caches_.fetchAccess(l * line);
        if (attr_cur_ != nullptr) {
            ++attr_cur_->l1i_accesses;
        }
        if (r.l1_miss) {
            ++stats_.l1i_misses;
            if (attr_cur_ != nullptr) {
                ++attr_cur_->l1i_misses;
            }
            fetch_penalty =
                std::max(fetch_penalty,
                         r.latency - params_.latencies.l1);
        }
    }
    if (!itlb_.access(site.address)) {
        ++stats_.itlb_misses;
        if (attr_cur_ != nullptr) {
            ++attr_cur_->itlb_misses;
        }
        fetch_penalty += params_.latencies.itlb_miss;
    }
    if (fetch_penalty > 0) {
        const uint64_t ready = cur_cycle_ + fetch_penalty;
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::Frontend;
        }
    }

    const bool load_dep = site.kind == trace::SiteKind::BlockLoadDep;
    uint32_t remaining = site.instructions;
    const uint32_t max_chunk = static_cast<uint32_t>(
        std::min(params_.rob_size, params_.rs_size));
    while (remaining > 0) {
        const uint32_t chunk = std::min(remaining, max_chunk);
        referenceResolveFrontend();
        ensureRobSpace(chunk);
        ensureRsSpace(chunk);
        uint64_t issue = cur_cycle_ + 1;
        if (load_dep && last_load_complete_ > issue) {
            issue = last_load_complete_;
        }
        robPush(issue, chunk, load_dep);
        rsPush(std::min(issue, cur_cycle_ + 15), chunk, load_dep);
        referenceDispatch(chunk);
        remaining -= chunk;
    }
}

void
ReferenceCoreModel::onBranch(const trace::CodeSite& site, bool taken)
{
    // Pre-fast-forward implementation: separate predict() and update()
    // virtual calls.
    if (attr_cur_ != nullptr) {
        attr_cur_ = &attrAt(site.id);
        ++attr_cur_->branches;
    }
    ++stats_.branches;
    const bool predicted = predictor_->predict(site.address);
    predictor_->update(site.address, taken);

    referenceResolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);

    uint64_t resolve = cur_cycle_ + 1;
    if (site.kind == trace::SiteKind::BranchLoadDep) {
        resolve = std::max(resolve, last_load_complete_);
    }

    robPush(resolve, 1, false);
    rsPush(std::min(resolve, cur_cycle_ + 15), 1,
           site.kind == trace::SiteKind::BranchLoadDep);
    referenceDispatch(1);

    if (predicted != taken) {
        ++stats_.branch_mispredicts;
        if (attr_cur_ != nullptr) {
            ++attr_cur_->branch_mispredicts;
        }
        const uint64_t ready =
            resolve + static_cast<uint64_t>(params_.mispredict_penalty);
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::BadSpeculation;
        }
    } else if (taken) {
        const bool btb_hit = btb_.access(site.address);
        if (!btb_hit) {
            ++stats_.btb_misses;
            if (attr_cur_ != nullptr) {
                ++attr_cur_->btb_misses;
            }
        }
        const int bubble =
            btb_hit ? params_.taken_bubble : params_.btb_miss_penalty;
        const uint64_t ready = cur_cycle_ + bubble;
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::Frontend;
        }
    }
}

void
ReferenceCoreModel::onLoad(uint64_t addr, uint32_t bytes)
{
    // Pre-fast-forward implementation: unconditional MSHR pruning scan.
    referenceResolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    const uint32_t line = params_.l1d.line_bytes;
    const uint64_t first = addr / line;
    const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
    int latency = params_.latencies.l1;
    for (uint64_t l = first; l <= last; ++l) {
        ++stats_.l1d_accesses;
        const AccessResult r = caches_.dataAccess(l * line);
        if (attr_cur_ != nullptr) {
            ++attr_cur_->l1d_accesses;
            attr_cur_->l1d_misses += r.l1_miss ? 1 : 0;
            attr_cur_->l2_misses += r.l2_miss ? 1 : 0;
            attr_cur_->l3_misses += r.l3_miss ? 1 : 0;
        }
        if (r.l1_miss) {
            ++stats_.l1d_misses;
        }
        if (r.l2_miss) {
            ++stats_.l2_misses;
        }
        if (r.l3_miss) {
            ++stats_.l3_misses;
        }
        latency = std::max(latency, r.latency);
    }

    uint64_t complete = cur_cycle_ + latency;
    if (latency > params_.latencies.l1) {
        while (!mshr_.empty() && mshr_.front() <= cur_cycle_) {
            mshr_.pop_front();
        }
        if (static_cast<int>(mshr_.size()) >= params_.mshr_entries) {
            complete = mshr_.front() + latency;
        }
        mshr_.push_back(complete);
    }
    last_load_complete_ = complete;
    robPush(complete, 1, true);
    rsPush(cur_cycle_ + std::min(latency, 15), 1, true);
    referenceDispatch(1);
}

void
ReferenceCoreModel::onStore(uint64_t addr, uint32_t bytes)
{
    // Pre-fast-forward implementation: division-based line math and the
    // store-buffer push open-coded (pre-sbPush).
    referenceResolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    ensureSbSpace(1);
    const uint32_t line = params_.l1d.line_bytes;
    const uint64_t first = addr / line;
    const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) / line;
    int latency = params_.latencies.l1;
    for (uint64_t l = first; l <= last; ++l) {
        ++stats_.l1d_accesses;
        const AccessResult r = caches_.dataAccess(l * line); // write-alloc
        if (attr_cur_ != nullptr) {
            ++attr_cur_->l1d_accesses;
            attr_cur_->l1d_misses += r.l1_miss ? 1 : 0;
            attr_cur_->l2_misses += r.l2_miss ? 1 : 0;
            attr_cur_->l3_misses += r.l3_miss ? 1 : 0;
        }
        if (r.l1_miss) {
            ++stats_.l1d_misses;
        }
        if (r.l2_miss) {
            ++stats_.l2_misses;
        }
        if (r.l3_miss) {
            ++stats_.l3_misses;
        }
        latency = std::max(latency, r.latency);
    }

    const uint64_t drain_time = cur_cycle_ + latency;
    const uint64_t drain_monotone = std::max(drain_time, sb_last_drain_);
    sb_last_drain_ = drain_monotone;
    if (!sb_.empty() && sb_.back().time == drain_monotone) {
        sb_.back().count += 1;
    } else {
        sb_.push_back({drain_monotone, 1, true});
    }
    ++sb_count_;

    robPush(cur_cycle_ + 1, 1, false);
    rsPush(cur_cycle_ + 1, 1, false);
    referenceDispatch(1);
}

void
ReferenceCoreModel::onBatch(const trace::ProbeEvent* events, size_t count)
{
    // Replay through the per-event entry points above.
    ProbeSink::onBatch(events, count);
}

} // namespace vtrans::uarch
