#include "uarch/core.h"

#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/status.h"

namespace vtrans::uarch {

// ---- Derived metrics ------------------------------------------------------

double
CoreStats::ipc() const
{
    return cycles == 0
               ? 0.0
               : static_cast<double>(instructions) / cycles;
}

namespace {

double
perKilo(uint64_t events, uint64_t instructions)
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(events) / instructions;
}

/** Resource-stall slots -> stall cycles per kilo-instruction. The
 *  slots-to-cycles conversion divides in floating point: an integer
 *  `slots / width` would drop up to (width - 1) slots of every partial
 *  stall cycle from the reported rate. */
double
perKiloStallCycles(uint64_t slots, int width, uint64_t instructions)
{
    return instructions == 0 || width <= 0
               ? 0.0
               : 1000.0 * (static_cast<double>(slots) / width)
                     / static_cast<double>(instructions);
}

} // namespace

double
CoreStats::seconds() const
{
    return static_cast<double>(cycles) / (freq_ghz * 1e9);
}

double
CoreStats::branchMpki() const
{
    return perKilo(branch_mispredicts, instructions);
}

double
CoreStats::l1dMpki() const
{
    return perKilo(l1d_misses, instructions);
}

double
CoreStats::l2Mpki() const
{
    return perKilo(l2_misses, instructions);
}

double
CoreStats::l3Mpki() const
{
    return perKilo(l3_misses, instructions);
}

double
CoreStats::l1iMpki() const
{
    return perKilo(l1i_misses, instructions);
}

TopDown
CoreStats::topdown() const
{
    TopDown td;
    if (slots_total == 0) {
        return td;
    }
    const double total = static_cast<double>(slots_total);
    td.retiring = slots_retiring / total;
    td.frontend = slots_frontend / total;
    td.bad_speculation = slots_bad_spec / total;
    td.backend_memory = slots_backend_memory / total;
    td.backend_core = slots_backend_core / total;
    return td;
}

double
CoreStats::robStallsPki() const
{
    return perKiloStallCycles(slots_rob_stall, width, instructions);
}

double
CoreStats::rsStallsPki() const
{
    return perKiloStallCycles(slots_rs_stall, width, instructions);
}

double
CoreStats::sbStallsPki() const
{
    return perKiloStallCycles(slots_sb_stall, width, instructions);
}

double
CoreStats::anyResourceStallsPki() const
{
    return perKiloStallCycles(
        slots_rob_stall + slots_rs_stall + slots_sb_stall, width,
        instructions);
}

// ---- SiteUarch -------------------------------------------------------------

void
SiteUarch::add(const SiteUarch& other)
{
    cycles += other.cycles;
    slots_retiring += other.slots_retiring;
    slots_frontend += other.slots_frontend;
    slots_bad_spec += other.slots_bad_spec;
    slots_backend_memory += other.slots_backend_memory;
    slots_backend_core += other.slots_backend_core;
    branches += other.branches;
    branch_mispredicts += other.branch_mispredicts;
    l1d_accesses += other.l1d_accesses;
    l1d_misses += other.l1d_misses;
    l2_misses += other.l2_misses;
    l3_misses += other.l3_misses;
    l1i_accesses += other.l1i_accesses;
    l1i_misses += other.l1i_misses;
    itlb_misses += other.itlb_misses;
    btb_misses += other.btb_misses;
}

// ---- CpuClaim --------------------------------------------------------------

namespace {

/// CPUs claimed by the instrumented runs of this process.
std::atomic<int> g_claimed_cpus{0};

} // namespace

CpuClaim::CpuClaim(CpuClaim&& other) noexcept
    : cpus_(std::exchange(other.cpus_, 0))
{
}

CpuClaim&
CpuClaim::operator=(CpuClaim&& other) noexcept
{
    if (this != &other) {
        release();
        cpus_ = std::exchange(other.cpus_, 0);
    }
    return *this;
}

CpuClaim
CpuClaim::hold(int cpus)
{
    VT_ASSERT(cpus >= 0, "negative CPU claim: ", cpus);
    g_claimed_cpus.fetch_add(cpus, std::memory_order_relaxed);
    return CpuClaim(cpus);
}

CpuClaim
CpuClaim::tryHold(int cpus)
{
    VT_ASSERT(cpus >= 0, "negative CPU claim: ", cpus);
    const int limit = usableCpus();
    int cur = g_claimed_cpus.load(std::memory_order_relaxed);
    do {
        if (cur + cpus > limit) {
            return CpuClaim();
        }
    } while (!g_claimed_cpus.compare_exchange_weak(
        cur, cur + cpus, std::memory_order_relaxed));
    return CpuClaim(cpus);
}

int
CpuClaim::usableCpus()
{
    static const int cpus = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0) {
            return 1;
        }
        return std::max(1, CPU_COUNT(&set));
    }();
    return cpus;
}

int
CpuClaim::claimed()
{
    return g_claimed_cpus.load(std::memory_order_relaxed);
}

void
CpuClaim::release()
{
    if (cpus_ > 0) {
        g_claimed_cpus.fetch_sub(cpus_, std::memory_order_relaxed);
        cpus_ = 0;
    }
}

// ---- MemoryStage -----------------------------------------------------------

namespace {

/** Out of line, so the hot loops that inline MemoryStage::data() do not
 *  also inline the message formatting. */
[[noreturn, gnu::noinline, gnu::cold]] void
dataSpanTooLong(uint32_t bytes)
{
    VT_PANIC("a data access of ", bytes, " bytes spans too many lines");
}

} // namespace

MemoryStage::MemoryStage(const CoreParams& params)
    : lat_(params.latencies),
      caches_(params.l1d, params.l1i, params.l2, params.l3, params.l4_size,
              params.latencies),
      itlb_(params.itlb_entries),
      predictor_(makePredictor(params.predictor)),
      btb_()
{
    // Outcomes carry latencies and fetch penalties in 16 bits: a miss
    // costs at most l1 + the slowest level, plus an iTLB miss.
    for (int latency : {lat_.l1, lat_.l2, lat_.l3, lat_.l4, lat_.memory,
                        lat_.itlb_miss}) {
        VT_ASSERT(latency >= 0 && latency <= UINT16_MAX / 3,
                  "cache latency out of range: ", latency);
    }
}

MemoryStage::SiteFetchPlan&
MemoryStage::planFor(const trace::CodeSite& site)
{
    if (site.id >= plans_.size()) {
        plans_.resize(site.id + 1);
    }
    SiteFetchPlan& plan = plans_[site.id];
    if (plan.address != site.address) {
        // First sighting, or a relayout pass moved the block.
        rebuildPlan(plan, site);
    }
    return plan;
}

void
MemoryStage::rebuildPlan(SiteFetchPlan& plan, const trace::CodeSite& site)
{
    const uint32_t shift = caches_.l1i().lineShift();
    const uint64_t first = site.address >> shift;
    const uint64_t last = (site.address + site.bytes - 1) >> shift;
    VT_ASSERT(last - first < UINT16_MAX,
              "code site spans too many lines: ", site.name);
    plan.address = site.address;
    plan.first_line = first;
    plan.page = site.address >> 12;
    plan.line_count = static_cast<uint32_t>(last - first + 1);
    plan.slots.resize(plan.line_count);
    for (uint32_t k = 0; k < plan.line_count; ++k) {
        // Seed every hint with way 0 of the line's own set: same-set by
        // construction, so touchIfResident()'s tag compare is sound from
        // the first use.
        plan.slots[k] = caches_.l1i().setBaseSlot(first + k);
    }
}

inline MemOutcome
MemoryStage::block(const trace::CodeSite& site)
{
    // Fetch the block's cache lines through L1i and the iTLB, walking the
    // site's precomputed fetch plan. A line whose resident-way hint still
    // holds it takes the inline hit arm; anything else falls back to the
    // full access and refreshes the hint.
    SiteFetchPlan& plan = planFor(site);
    Cache& l1i = caches_.l1i();
    MemOutcome o{};
    o.lines = static_cast<uint16_t>(plan.line_count);
    int fetch_penalty = 0;
    uint32_t* slots = plan.slots.data();
    for (uint32_t k = 0; k < plan.line_count; ++k) {
        const uint64_t l = plan.first_line + k;
        if (l1i.touchIfResident(l, slots[k])) {
            continue; // L1i hit with exact hit-arm bookkeeping.
        }
        const AccessResult r = caches_.fetchLineAccess(l);
        slots[k] = l1i.mruSlot();
        if (r.l1_miss) {
            ++o.l1_misses;
            fetch_penalty = std::max(fetch_penalty, r.latency - lat_.l1);
        }
    }
    if (!itlb_.accessPage(plan.page)) {
        o.flags |= MemOutcome::kItlbMiss;
        fetch_penalty += lat_.itlb_miss;
    }
    o.latency = static_cast<uint16_t>(fetch_penalty);
    return o;
}

inline void
MemoryStage::branch(const trace::CodeSite& site, bool taken, MemOutcome& o)
{
    // One devirtualizable call per branch instead of the predict() +
    // update() virtual pair; behaviour is identical by construction.
    const bool predicted = predictor_->predictAndUpdate(site.address, taken);
    if (predicted) {
        o.flags |= MemOutcome::kPredicted;
    }
    // Only a correctly predicted taken branch redirects through the BTB.
    if (predicted && taken && btb_.access(site.address)) {
        o.flags |= MemOutcome::kBtbHit;
    }
}

inline MemOutcome
MemoryStage::data(uint64_t addr, uint32_t bytes)
{
    // Line span via shifts: line sizes are asserted powers of two, and
    // unsigned divide/multiply by 2^k is exactly shift by k — this only
    // dodges the hardware divide the / form costs per event. Stores
    // write-allocate, so loads and stores walk the hierarchy alike.
    const uint32_t shift = caches_.l1d().lineShift();
    const uint64_t first = addr >> shift;
    const uint64_t last = (addr + (bytes == 0 ? 0 : bytes - 1)) >> shift;
    if (last - first >= UINT16_MAX) [[unlikely]] {
        dataSpanTooLong(bytes);
    }
    MemOutcome o{};
    o.lines = static_cast<uint16_t>(last - first + 1);
    int latency = lat_.l1;
    for (uint64_t l = first; l <= last; ++l) {
        const AccessResult r = caches_.dataAccess(l << shift);
        o.l1_misses += r.l1_miss ? 1 : 0;
        o.l2_misses += r.l2_miss ? 1 : 0;
        o.l3_misses += r.l3_miss ? 1 : 0;
        latency = std::max(latency, r.latency);
    }
    o.latency = static_cast<uint16_t>(latency);
    return o;
}

[[gnu::flatten]] void
MemoryStage::run(const trace::ProbeEvent* events, MemOutcome* out,
                 size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        const trace::ProbeEvent& e = events[i];
        switch (e.kind) {
        case trace::ProbeEvent::kBlock:
            out[i] = block(*e.site);
            break;
        case trace::ProbeEvent::kBlockBranch:
            out[i] = block(*e.site);
            branch(*e.site, (e.flags & 1) != 0, out[i]);
            break;
        case trace::ProbeEvent::kLoad:
        case trace::ProbeEvent::kStore:
            out[i] = data(e.addr, e.aux);
            break;
        default:
            VT_PANIC("corrupt probe event kind ", static_cast<int>(e.kind));
        }
    }
}

// ---- TimingStage -----------------------------------------------------------

TimingStage::TimingStage(const CoreParams& params)
    : params_(params),
      // Window rings hold at most one coalesced entry per occupant, so
      // reserving the modelled structure size up front means pushes never
      // reallocate: even with lazy draining, occupancy (stale entries
      // included, and thus the entry count) stays bounded by the
      // structure size via ensure*Space().
      rob_(static_cast<size_t>(std::max(params.rob_size, 1))),
      rs_(static_cast<size_t>(std::max(params.rs_size, 1))),
      sb_(static_cast<size_t>(std::max(params.sb_size, 1))),
      mshr_(static_cast<size_t>(std::max(params.mshr_entries, 1)) * 2)
{
    VT_ASSERT(params_.width > 0 && params_.rob_size > 0
                  && params_.rs_size > 0 && params_.sb_size > 0,
              "invalid core parameters");
    stats_.width = params_.width;
    stats_.freq_ghz = params_.freq_ghz;
    if (params_.attribute_sites) {
        attr_cur_ = &attr_unattributed_;
    }
    if (params_.phase_window > 0) {
        next_phase_ = params_.phase_window;
    }
}

SiteUarch&
TimingStage::attrAt(uint32_t site_id)
{
    if (site_id >= attr_sites_.size()) {
        attr_sites_.resize(site_id + 1);
    }
    return attr_sites_[site_id];
}

void
TimingStage::capturePhase()
{
    PhaseSample s;
    s.instructions = stats_.instructions;
    s.cycles = cur_cycle_;
    s.slots_retiring = stats_.slots_retiring;
    s.slots_frontend = stats_.slots_frontend;
    s.slots_bad_spec = stats_.slots_bad_spec;
    s.slots_backend_memory = stats_.slots_backend_memory;
    s.slots_backend_core = stats_.slots_backend_core;
    s.branches = stats_.branches;
    s.branch_mispredicts = stats_.branch_mispredicts;
    s.l1d_misses = stats_.l1d_misses;
    s.l2_misses = stats_.l2_misses;
    s.l3_misses = stats_.l3_misses;
    s.l1i_misses = stats_.l1i_misses;
    phase_.push_back(s);
    next_phase_ += params_.phase_window;
}

void
TimingStage::advanceTo(uint64_t target_cycle, StallCause cause)
{
    if (target_cycle <= cur_cycle_) {
        return;
    }
    const uint64_t empty =
        (target_cycle - cur_cycle_) * params_.width - slots_in_cycle_;
    switch (cause) {
      case StallCause::Frontend:
        stats_.slots_frontend += empty;
        break;
      case StallCause::BadSpeculation:
        stats_.slots_bad_spec += empty;
        break;
      case StallCause::BackendMemory:
        stats_.slots_backend_memory += empty;
        break;
      case StallCause::BackendCore:
        stats_.slots_backend_core += empty;
        break;
    }
    if (attr_cur_ != nullptr) {
        attr_cur_->cycles += target_cycle - cur_cycle_;
        switch (cause) {
          case StallCause::Frontend:
            attr_cur_->slots_frontend += empty;
            break;
          case StallCause::BadSpeculation:
            attr_cur_->slots_bad_spec += empty;
            break;
          case StallCause::BackendMemory:
            attr_cur_->slots_backend_memory += empty;
            break;
          case StallCause::BackendCore:
            attr_cur_->slots_backend_core += empty;
            break;
        }
    }
    cur_cycle_ = target_cycle;
    slots_in_cycle_ = 0;
}

void
TimingStage::drain()
{
    while (!rob_.empty() && rob_.front().time <= cur_cycle_) {
        rob_count_ -= rob_.front().count;
        rob_.pop_front();
    }
    while (!rs_.empty() && rs_.front().time <= cur_cycle_) {
        rs_count_ -= rs_.front().count;
        rs_.pop_front();
    }
    while (!sb_.empty() && sb_.front().time <= cur_cycle_) {
        sb_count_ -= sb_.front().count;
        sb_.pop_front();
    }
}

void
TimingStage::dispatch(uint32_t count)
{
    // Event-driven fast-forward (DESIGN.md §13). Two facts make a
    // closed-form advance bit-exact vs the stepped reference loop:
    //
    //  1. fetch_ready_ is invariant across this call and cur_cycle_ only
    //     grows, so the per-instruction frontend check can fire at most
    //     once — on the first instruction. Hoist it.
    //  2. drain() only pops window entries whose time has passed, and an
    //     entry expired at cycle T is still expired at every later cycle;
    //     nothing in dispatch reads window occupancy, and every consumer
    //     of occupancy (ensure*Space, which also charges the stalls)
    //     pops expired heads before deciding. So the stepped loop's
    //     per-rollover drains commute past the whole span — and past
    //     every later event up to the next occupancy check, so none is
    //     needed here at all.
    //
    // What remains is pure arithmetic on (cur_cycle_, slots_in_cycle_,
    // slots_retiring, instructions): advance it in closed form.
    if (fetch_ready_ > cur_cycle_) {
        advanceTo(fetch_ready_, fetch_reason_);
    }
    const uint32_t width = static_cast<uint32_t>(params_.width);
    const uint64_t slots0 = slots_in_cycle_;
    // slots_in_cycle_ < width always holds between calls, so single-
    // instruction events (every load, store, and branch) never need the
    // hardware divide: the span either stays inside the current cycle or
    // fills it exactly.
    const uint64_t total = slots0 + count;
    uint64_t rolled;
    uint32_t rem;
    if (total < width) {
        rolled = 0;
        rem = static_cast<uint32_t>(total);
    } else if (count == 1) {
        rolled = 1; // slots0 + 1 == width exactly.
        rem = 0;
    } else {
        rolled = total / width;
        rem = static_cast<uint32_t>(total % width);
    }
    if (attr_cur_ == nullptr && next_phase_ == UINT64_MAX) {
        // Hot path: attribution and phase sampling both off.
        stats_.slots_retiring += count;
        stats_.instructions += count;
        cur_cycle_ += rolled;
        slots_in_cycle_ = rem;
        return;
    }
    // Instrumented path. The attribution bucket cannot change inside
    // dispatch (only the block/branch probes retarget attr_cur_), so the
    // per-site charges post once; phase samples must land exactly on
    // window boundaries, so the span splits there — O(captures), not
    // O(instructions).
    const uint64_t cycle0 = cur_cycle_;
    if (next_phase_ == UINT64_MAX) {
        stats_.slots_retiring += count;
        stats_.instructions += count;
    } else {
        uint64_t done = 0;
        while (done < count) {
            const uint64_t to_boundary = next_phase_ - stats_.instructions;
            const uint64_t span =
                std::min<uint64_t>(count - done, to_boundary);
            stats_.slots_retiring += span;
            stats_.instructions += span;
            done += span;
            if (span == to_boundary) {
                // The reference loop samples after the boundary
                // instruction's retire/instruction increments but before
                // its dispatch slot is consumed: position the clock at
                // the cycle the first (done - 1) slots of this call
                // reached, then capture.
                cur_cycle_ = cycle0 + (slots0 + done - 1) / width;
                capturePhase();
            }
        }
    }
    cur_cycle_ = cycle0 + rolled;
    slots_in_cycle_ = rem;
    if (attr_cur_ != nullptr) {
        attr_cur_->slots_retiring += count;
        attr_cur_->cycles += rolled;
    }
}

void
TimingStage::waitForSpace(const RingBuffer<WindowEntry>& window,
                        const uint64_t& occupancy, uint64_t size,
                        uint32_t count, bool memory_cause,
                        uint64_t& stall_slots)
{
    // Expired heads pop without a stall; drain() also pops the other
    // windows' expired heads, as the eager drains once did.
    while (occupancy + count > size) {
        VT_ASSERT(!window.empty(), "window accounting broke");
        const WindowEntry& head = window.front();
        if (head.time > cur_cycle_) {
            const uint64_t before =
                stats_.slots_backend_memory + stats_.slots_backend_core;
            advanceTo(head.time, memory_cause && head.is_mem
                                     ? StallCause::BackendMemory
                                     : StallCause::BackendCore);
            stall_slots += stats_.slots_backend_memory
                           + stats_.slots_backend_core - before;
        }
        drain();
    }
}

inline void
TimingStage::sbPush(uint64_t drain_time, uint32_t count)
{
    // Stores drain in order: drain times are made monotone like ROB
    // completion times, and same-cycle drains coalesce into one entry.
    const uint64_t t = std::max(drain_time, sb_last_drain_);
    sb_last_drain_ = t;
    if (!sb_.empty() && sb_.back().time == t) {
        sb_.back().count += count;
    } else {
        sb_.push_back({t, count, true});
    }
    sb_count_ += count;
}

inline void
TimingStage::resolveFrontend()
{
    if (fetch_ready_ > cur_cycle_) {
        advanceTo(fetch_ready_, fetch_reason_);
    }
}

inline void
TimingStage::chargeData(const MemOutcome& o)
{
    stats_.l1d_accesses += o.lines;
    stats_.l1d_misses += o.l1_misses;
    stats_.l2_misses += o.l2_misses;
    stats_.l3_misses += o.l3_misses;
    if (attr_cur_ != nullptr) {
        attr_cur_->l1d_accesses += o.lines;
        attr_cur_->l1d_misses += o.l1_misses;
        attr_cur_->l2_misses += o.l2_misses;
        attr_cur_->l3_misses += o.l3_misses;
    }
}

inline void
TimingStage::block(const trace::CodeSite& site, const MemOutcome& o)
{
    if (attr_cur_ != nullptr) {
        attr_cur_ = &attrAt(site.id);
    }
    // Frontend: charge the fetch the memory stage walked. Counter order
    // within the fetch phase is not observable (the next possible
    // observation point is dispatch), so the tallies post in bulk.
    stats_.l1i_accesses += o.lines;
    stats_.l1i_misses += o.l1_misses;
    if (attr_cur_ != nullptr) {
        attr_cur_->l1i_accesses += o.lines;
        attr_cur_->l1i_misses += o.l1_misses;
    }
    if ((o.flags & MemOutcome::kItlbMiss) != 0) {
        ++stats_.itlb_misses;
        if (attr_cur_ != nullptr) {
            ++attr_cur_->itlb_misses;
        }
    }
    if (o.latency > 0) {
        const uint64_t ready = cur_cycle_ + o.latency;
        if (ready > fetch_ready_) {
            fetch_ready_ = ready;
            fetch_reason_ = StallCause::Frontend;
        }
    }

    // Backend: the block's ALU instructions complete one cycle after
    // dispatch and issue immediately — unless the block consumes
    // just-loaded data (BlockLoadDep), in which case its work dwells in
    // the reservation station until the feeding load returns. Batches
    // larger than a window structure flow through in chunks.
    const bool load_dep = site.kind == trace::SiteKind::BlockLoadDep;
    uint32_t remaining = site.instructions;
    const uint32_t max_chunk = static_cast<uint32_t>(
        std::min(params_.rob_size, params_.rs_size));
    while (remaining > 0) {
        const uint32_t chunk = std::min(remaining, max_chunk);
        resolveFrontend();
        ensureRobSpace(chunk);
        ensureRsSpace(chunk);
        uint64_t issue = cur_cycle_ + 1;
        if (load_dep && last_load_complete_ > issue) {
            issue = last_load_complete_;
        }
        robPush(issue, chunk, load_dep);
        // RS dwell is bounded (entries leave at issue; the scheduler does
        // not hold them for a full memory round trip).
        rsPush(std::min(issue, cur_cycle_ + 15), chunk, load_dep);
        dispatch(chunk);
        remaining -= chunk;
    }
}

inline void
TimingStage::branch(const trace::CodeSite& site, bool taken,
                    const MemOutcome& o)
{
    if (attr_cur_ != nullptr) {
        attr_cur_ = &attrAt(site.id);
        ++attr_cur_->branches;
    }
    ++stats_.branches;
    const bool predicted = (o.flags & MemOutcome::kPredicted) != 0;

    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);

    // The branch resolves when its inputs are ready; load-dependent
    // branches resolve only after the feeding load returns.
    uint64_t resolve = cur_cycle_ + 1;
    if (site.kind == trace::SiteKind::BranchLoadDep) {
        resolve = std::max(resolve, last_load_complete_);
    }

    robPush(resolve, 1, false);
    rsPush(std::min(resolve, cur_cycle_ + 15), 1,
           site.kind == trace::SiteKind::BranchLoadDep);
    dispatch(1);

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
        // Correctly predicted taken: redirect bubble, larger on BTB miss.
        const bool btb_hit = (o.flags & MemOutcome::kBtbHit) != 0;
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

inline void
TimingStage::load(const MemOutcome& o)
{
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    chargeData(o);
    const int latency = o.latency;

    // Miss-status-holding registers bound memory-level parallelism: a
    // miss beyond the outstanding limit starts only when the oldest one
    // completes. mshr_head_ caches the oldest outstanding completion
    // (UINT64_MAX when empty), so the common no-expiry case skips the
    // pruning scan entirely; the queue itself is untouched until a head
    // actually expires, which pops the same entries the stepped loop
    // would.
    uint64_t complete = cur_cycle_ + latency;
    if (latency > params_.latencies.l1) {
        if (mshr_head_ <= cur_cycle_) {
            while (!mshr_.empty() && mshr_.front() <= cur_cycle_) {
                mshr_.pop_front();
            }
            mshr_head_ = mshr_.empty() ? UINT64_MAX : mshr_.front();
        }
        if (static_cast<int>(mshr_.size()) >= params_.mshr_entries) {
            complete = mshr_.front() + latency;
        }
        mshr_.push_back(complete);
        mshr_head_ = mshr_.front();
    }
    last_load_complete_ = complete;
    robPush(complete, 1, true);
    // Loads leave the reservation station at issue (address generation),
    // not at data return; only a bounded scheduler dwell is charged. The
    // in-order-retire ROB carries the full miss latency.
    rsPush(cur_cycle_ + std::min(latency, 15), 1, true);
    dispatch(1);
}

inline void
TimingStage::store(const MemOutcome& o)
{
    resolveFrontend();
    ensureRobSpace(1);
    ensureRsSpace(1);
    ensureSbSpace(1);
    chargeData(o);

    // Stores retire promptly but occupy the store buffer until the line
    // is written; a full SB blocks dispatch (space reserved above).
    sbPush(cur_cycle_ + o.latency, 1);

    robPush(cur_cycle_ + 1, 1, false);
    rsPush(cur_cycle_ + 1, 1, false);
    dispatch(1);
}

[[gnu::flatten]] void
TimingStage::run(const trace::ProbeEvent* events, const MemOutcome* outcomes,
                 size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        const trace::ProbeEvent& e = events[i];
        switch (e.kind) {
        case trace::ProbeEvent::kBlock:
            block(*e.site, outcomes[i]);
            break;
        case trace::ProbeEvent::kBlockBranch:
            block(*e.site, outcomes[i]);
            branch(*e.site, (e.flags & 1) != 0, outcomes[i]);
            break;
        case trace::ProbeEvent::kLoad:
            load(outcomes[i]);
            break;
        case trace::ProbeEvent::kStore:
            store(outcomes[i]);
            break;
        default:
            VT_PANIC("corrupt probe event kind ", static_cast<int>(e.kind));
        }
    }
}

CoreStats
TimingStage::finish()
{
    // Let the machine drain: run the clock to the last retirement.
    uint64_t end = std::max(cur_cycle_, fetch_ready_);
    if (!rob_.empty()) {
        end = std::max(end, rob_.back().time);
    }
    if (!sb_.empty()) {
        end = std::max(end, sb_.back().time);
    }
    if (slots_in_cycle_ > 0) {
        // Fill the partial cycle's leftover slots as backend-core.
        stats_.slots_backend_core += params_.width - slots_in_cycle_;
        if (attr_cur_ != nullptr) {
            attr_cur_->slots_backend_core += params_.width - slots_in_cycle_;
            ++attr_cur_->cycles;
        }
        ++cur_cycle_;
        slots_in_cycle_ = 0;
    }
    advanceTo(end, StallCause::BackendMemory);

    stats_.cycles = cur_cycle_;
    stats_.slots_total =
        stats_.cycles * static_cast<uint64_t>(params_.width);
    if (next_phase_ != UINT64_MAX
        && (phase_.empty() || phase_.back().instructions != stats_.instructions
            || phase_.back().cycles != stats_.cycles)) {
        // Close the time-series with the post-drain totals.
        capturePhase();
    }
    return stats_;
}

// ---- CorePipeline ----------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Records per ring slot: one default probe batch.
constexpr uint32_t kSlotEvents = trace::kDefaultProbeBatch;

/** Polls before a waiting stage sleeps: a slot takes a few microseconds
 *  to fill or consume, so most waits end within the spin. */
constexpr int kSpinPolls = 2048;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** Waits until `ready(index.load())` holds: a bounded spin, then sleeps
 *  on the index. Adds the time waited to `wait_s`. */
template <typename Ready>
uint32_t
awaitIndex(const std::atomic<uint32_t>& index, Ready ready, double& wait_s)
{
    uint32_t v = index.load(std::memory_order_acquire);
    if (ready(v)) {
        return v;
    }
    const Clock::time_point t0 = Clock::now();
    for (int poll = 0; poll < kSpinPolls && !ready(v); ++poll) {
        cpuRelax();
        v = index.load(std::memory_order_acquire);
    }
    while (!ready(v)) {
        index.wait(v, std::memory_order_acquire);
        v = index.load(std::memory_order_acquire);
    }
    wait_s += secondsSince(t0);
    return v;
}

void
publishIndex(std::atomic<uint32_t>& index, uint32_t value)
{
    index.store(value, std::memory_order_release);
    index.notify_one();
}

} // namespace

/**
 * The threaded schedule of one run: a ring of slots handed from the
 * emitting thread to the memory stage's thread, from it to the timing
 * stage's thread, and back. Each hand-off is one single-producer,
 * single-consumer index (release on publish, acquire on read) on its own
 * cache line; indices count slots and wrap harmlessly.
 */
struct CorePipeline
{
    /** Slots in the ring: 16 x (256 events + outcomes) is 113 KiB. */
    static constexpr uint32_t kSlots = 16;
    /** A slot count that tells both stage threads to exit. */
    static constexpr uint32_t kStop = UINT32_MAX;

    struct alignas(64) Slot
    {
        uint32_t count = 0;
        trace::ProbeEvent events[kSlotEvents];
        MemOutcome outcomes[kSlotEvents];
    };

    // The ring comes straight from mmap and goes back with munmap, so a
    // run's pipeline adds exactly its pages to the resident set and
    // leaves no hole in the heap when it ends.
    static void*
    operator new(std::size_t size)
    {
        void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        VT_ASSERT(p != MAP_FAILED, "cannot map a core pipeline ring");
        return p;
    }
    static void
    operator delete(void* p, std::size_t size)
    {
        munmap(p, size);
    }

    CorePipeline(MemoryStage& memory, TimingStage& timing)
    {
        memory_thread = std::thread([this, &memory] { memoryLoop(memory); });
        timing_thread = std::thread([this, &timing] { timingLoop(timing); });
    }

    /** Copies `count` records into the ring (emitting thread). */
    void
    push(const trace::ProbeEvent* events, size_t count, double& wait_s)
    {
        while (count > 0) {
            Slot& slot = fillSlot(wait_s);
            const size_t n = std::min<size_t>(count, kSlotEvents - fill);
            std::memcpy(slot.events + fill, events,
                        n * sizeof(trace::ProbeEvent));
            fill += static_cast<uint32_t>(n);
            events += n;
            count -= n;
            if (fill == kSlotEvents) {
                publish(fill);
            }
        }
    }

    /** Hands over the partial slot and a stop slot, then joins both
     *  threads: every pushed event has been consumed on return. */
    void
    stop(double& wait_s)
    {
        if (fill > 0) {
            publish(fill);
        }
        fillSlot(wait_s);
        publish(kStop);
        const Clock::time_point t0 = Clock::now();
        memory_thread.join();
        timing_thread.join();
        wait_s += secondsSince(t0);
    }

    /** The slot being filled; waits for the timing stage to free it. */
    Slot&
    fillSlot(double& wait_s)
    {
        const uint32_t index = produced.load(std::memory_order_relaxed);
        if (fill == 0) {
            awaitIndex(
                consumed,
                [index](uint32_t done) { return index - done < kSlots; },
                wait_s);
        }
        return slots[index % kSlots];
    }

    void
    publish(uint32_t count)
    {
        const uint32_t index = produced.load(std::memory_order_relaxed);
        slots[index % kSlots].count = count;
        fill = 0;
        publishIndex(produced, index + 1);
    }

    /** Starts every line of the slot's events toward this core for
     *  reading and of its outcomes for writing, so the cross-core
     *  transfers overlap instead of stalling the stage one by one. */
    static void
    prefetchSlot(const Slot& slot, uint32_t count)
    {
        const char* events = reinterpret_cast<const char*>(slot.events);
        const char* outcomes = reinterpret_cast<const char*>(slot.outcomes);
        for (size_t b = 0; b < count * sizeof(trace::ProbeEvent); b += 64) {
            __builtin_prefetch(events + b, 0);
        }
        for (size_t b = 0; b < count * sizeof(MemOutcome); b += 64) {
            __builtin_prefetch(outcomes + b, 1);
        }
    }

    void
    memoryLoop(MemoryStage& stage)
    {
        const Clock::time_point t0 = Clock::now();
        for (uint32_t next = 0;; ++next) {
            awaitIndex(
                produced, [next](uint32_t v) { return v != next; },
                memory_wait_s);
            Slot& slot = slots[next % kSlots];
            const uint32_t count = slot.count;
            if (count != kStop) {
                prefetchSlot(slot, count);
                stage.run(slot.events, slot.outcomes, count);
            }
            publishIndex(resolved, next + 1);
            if (count == kStop) {
                break;
            }
        }
        memory_busy_s = secondsSince(t0) - memory_wait_s;
    }

    void
    timingLoop(TimingStage& stage)
    {
        const Clock::time_point t0 = Clock::now();
        for (uint32_t next = 0;; ++next) {
            awaitIndex(
                resolved, [next](uint32_t v) { return v != next; },
                timing_wait_s);
            Slot& slot = slots[next % kSlots];
            const uint32_t count = slot.count;
            if (count != kStop) {
                stage.run(slot.events, slot.outcomes, count);
            }
            publishIndex(consumed, next + 1);
            if (count == kStop) {
                break;
            }
        }
        timing_busy_s = secondsSince(t0) - timing_wait_s;
    }

    /// Slots handed to the memory stage (written by the emitting thread).
    alignas(64) std::atomic<uint32_t> produced{0};
    /// Slots with outcomes (written by the memory stage's thread).
    alignas(64) std::atomic<uint32_t> resolved{0};
    /// Slots the timing stage is done with (written by its thread).
    alignas(64) std::atomic<uint32_t> consumed{0};

    /// Records in slot `produced` so far (emitting thread only).
    alignas(64) uint32_t fill = 0;

    // Each written by its stage thread, read after the join.
    alignas(64) double memory_busy_s = 0.0;
    double memory_wait_s = 0.0;
    alignas(64) double timing_busy_s = 0.0;
    double timing_wait_s = 0.0;

    std::thread memory_thread;
    std::thread timing_thread;

    Slot slots[kSlots];
};

// ---- CoreModel -------------------------------------------------------------

CoreModel::CoreModel(const CoreParams& params)
    : params_(params),
      stages_(std::make_unique<Stages>(params))
{
}

CoreModel::~CoreModel()
{
    endRun();
}

void
CoreModel::startRun()
{
    // The emitting thread plus two stage threads, if they fit beside
    // every other running instrumented run; else just the emitting one.
    claim_ = CpuClaim::tryHold(3);
    if (claim_.cpus() == 0) {
        claim_ = CpuClaim::hold(1);
        return;
    }
    schedule_.pipelined = true;
    pipeline_ =
        std::make_unique<CorePipeline>(stages_->memory, stages_->timing);
}

void
CoreModel::endRun()
{
    if (pipeline_ != nullptr) {
        pipeline_->stop(schedule_.codec_wait_s);
        schedule_.memory_busy_s += pipeline_->memory_busy_s;
        schedule_.memory_wait_s += pipeline_->memory_wait_s;
        schedule_.timing_busy_s += pipeline_->timing_busy_s;
        schedule_.timing_wait_s += pipeline_->timing_wait_s;
        pipeline_.reset();
    }
    claim_.release();
}

[[gnu::flatten]] void
CoreModel::Stages::runInline(const trace::ProbeEvent* events, size_t count)
{
    // The same stage code the threads run, back to back on this thread
    // and fused per event: the memory stage never reads timing state, so
    // the order in which the two stages see the stream changes nothing.
    for (size_t i = 0; i < count; ++i) {
        const trace::ProbeEvent& e = events[i];
        switch (e.kind) {
        case trace::ProbeEvent::kBlock:
            timing.block(*e.site, memory.block(*e.site));
            break;
        case trace::ProbeEvent::kBlockBranch: {
            MemOutcome o = memory.block(*e.site);
            const bool taken = (e.flags & 1) != 0;
            memory.branch(*e.site, taken, o);
            timing.block(*e.site, o);
            timing.branch(*e.site, taken, o);
            break;
        }
        case trace::ProbeEvent::kLoad:
            timing.load(memory.data(e.addr, e.aux));
            break;
        case trace::ProbeEvent::kStore:
            timing.store(memory.data(e.addr, e.aux));
            break;
        default:
            VT_PANIC("corrupt probe event kind ", static_cast<int>(e.kind));
        }
    }
}

void
CoreModel::onBatch(const trace::ProbeEvent* events, size_t count)
{
    if (claim_.cpus() == 0) {
        startRun();
    } else if (pipeline_ != nullptr
               && CpuClaim::claimed() > CpuClaim::usableCpus()) {
        // Runs that started later claimed the stage threads' CPUs: drain
        // the ring and go on inline rather than oversubscribe them.
        endRun();
        claim_ = CpuClaim::hold(1);
    }
    if (pipeline_ != nullptr) {
        pipeline_->push(events, count, schedule_.codec_wait_s);
    } else {
        stages_->runInline(events, count);
    }
}

void
CoreModel::onDetach()
{
    endRun();
}

void
CoreModel::onBlock(const trace::CodeSite& site)
{
    endRun();
    stages_->timing.block(site, stages_->memory.block(site));
}

void
CoreModel::onBranch(const trace::CodeSite& site, bool taken)
{
    endRun();
    MemOutcome o{};
    stages_->memory.branch(site, taken, o);
    stages_->timing.branch(site, taken, o);
}

void
CoreModel::onLoad(uint64_t addr, uint32_t bytes)
{
    endRun();
    stages_->timing.load(stages_->memory.data(addr, bytes));
}

void
CoreModel::onStore(uint64_t addr, uint32_t bytes)
{
    endRun();
    stages_->timing.store(stages_->memory.data(addr, bytes));
}

CoreStats
CoreModel::finish()
{
    VT_ASSERT(!finished_, "finish() called twice");
    finished_ = true;
    endRun();
    return stages_->timing.finish();
}

} // namespace vtrans::uarch
