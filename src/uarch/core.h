#ifndef VTRANS_UARCH_CORE_H_
#define VTRANS_UARCH_CORE_H_

/**
 * @file
 * The out-of-order core timing model: an interval-style simulator (the
 * fidelity class of Sniper, §III-B5) that consumes the probe event stream
 * and produces cycles, Top-down pipeline-slot breakdown (Yasin's method,
 * as VTune reports it, §III-B1), and the fine-grained event rates Linux
 * perf would report (MPKI, resource stalls; §III-B2).
 *
 * Model summary: a width-W dispatch front consumes one slot per
 * instruction; empty slots are attributed to the stall that caused them —
 * frontend (L1i/iTLB misses, taken-branch redirects), bad speculation
 * (mispredict flush bubbles), or backend (ROB/RS/SB full, split into
 * memory-bound and core-bound by the blocking instruction). Loads get
 * their latency from a functional cache hierarchy; retirement is in-order
 * via monotone completion times.
 *
 * The model is two stages that each own their state: a memory/branch
 * stage (caches, iTLB, predictor, BTB) that turns every event into an
 * outcome, and a timing stage (dispatch, windows, statistics) that
 * consumes the events with their outcomes. With spare cores they run on
 * their own threads as a pipeline behind the emitting thread.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/probe.h"
#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/ringbuf.h"
#include "uarch/tlb.h"

namespace vtrans::uarch {

/** Full configuration of a simulated core (a Table IV row). */
struct CoreParams
{
    std::string name = "baseline";

    // Pipeline.
    int width = 4;               ///< Dispatch/issue width (slots/cycle).
    int rob_size = 128;          ///< Reorder buffer entries.
    int rs_size = 36;            ///< Reservation station entries.
    int sb_size = 32;            ///< Store buffer entries.
    bool issue_at_dispatch = false; ///< be_op2: RS dwell removed.
    int mshr_entries = 10;       ///< Max outstanding L1d misses (MLP cap).
    int mispredict_penalty = 12; ///< Refill cycles after branch resolve.
    int btb_miss_penalty = 3;    ///< Redirect bubble on BTB miss.
    int taken_bubble = 1;        ///< Redirect bubble on predicted-taken.
    double freq_ghz = 3.5;       ///< §III: 3.5 GHz Xeon E3.

    // Memory system.
    CacheParams l1d{32 * 1024, 8, 64};
    CacheParams l1i{32 * 1024, 8, 64};
    CacheParams l2{256 * 1024, 8, 64};
    CacheParams l3{8192 * 1024, 16, 64};
    uint32_t l4_size = 0;        ///< 0 = no L4 (baseline).
    uint32_t itlb_entries = 128;
    LatencyParams latencies;

    // Branch prediction.
    std::string predictor = "pentium_m";

    // Observability (pure accounting; never changes timing, event
    // handling order, or any CoreStats value).
    bool attribute_sites = false; ///< Charge cycles/slots/misses to the
                                  ///< current trace::CodeSite.
    uint64_t phase_window = 0;    ///< Cumulative-counter snapshot every N
                                  ///< retired instructions (0 = off).
};

/**
 * Per-site µarch tallies, filled only when CoreParams::attribute_sites
 * is on. Every charge mirrors the exact CoreStats increment it shadows,
 * so summing any field across all sites plus the unattributed bucket
 * reproduces the corresponding CoreStats counter bit for bit
 * (slots_total has no per-site mirror; it is cycles * width).
 */
struct SiteUarch
{
    uint64_t cycles = 0;
    uint64_t slots_retiring = 0;
    uint64_t slots_frontend = 0;
    uint64_t slots_bad_spec = 0;
    uint64_t slots_backend_memory = 0;
    uint64_t slots_backend_core = 0;
    uint64_t branches = 0;
    uint64_t branch_mispredicts = 0;
    uint64_t l1d_accesses = 0;
    uint64_t l1d_misses = 0;
    uint64_t l2_misses = 0;
    uint64_t l3_misses = 0;
    uint64_t l1i_accesses = 0;
    uint64_t l1i_misses = 0;
    uint64_t itlb_misses = 0;
    uint64_t btb_misses = 0;

    void add(const SiteUarch& other);
};

/** One cumulative counter snapshot of the phase time-series, taken every
 *  CoreParams::phase_window retired instructions (plus a final one at
 *  finish()). Consumers difference adjacent samples for window rates. */
struct PhaseSample
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t slots_retiring = 0;
    uint64_t slots_frontend = 0;
    uint64_t slots_bad_spec = 0;
    uint64_t slots_backend_memory = 0;
    uint64_t slots_backend_core = 0;
    uint64_t branches = 0;
    uint64_t branch_mispredicts = 0;
    uint64_t l1d_misses = 0;
    uint64_t l2_misses = 0;
    uint64_t l3_misses = 0;
    uint64_t l1i_misses = 0;
};

/** Top-down pipeline-slot breakdown (fractions sum to 1). */
struct TopDown
{
    double retiring = 0.0;
    double frontend = 0.0;
    double bad_speculation = 0.0;
    double backend_memory = 0.0;
    double backend_core = 0.0;

    double backend() const { return backend_memory + backend_core; }
};

/** Raw and derived counters of one simulation. */
struct CoreStats
{
    // Raw counters.
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t branches = 0;
    uint64_t branch_mispredicts = 0;
    uint64_t l1d_accesses = 0;
    uint64_t l1d_misses = 0;
    uint64_t l2_misses = 0;   ///< Data-side L2 misses.
    uint64_t l3_misses = 0;   ///< Data-side L3 misses.
    uint64_t l1i_accesses = 0;
    uint64_t l1i_misses = 0;
    uint64_t itlb_misses = 0;
    uint64_t btb_misses = 0;

    // Stall slots by cause (units: dispatch slots).
    uint64_t slots_total = 0;
    uint64_t slots_retiring = 0;
    uint64_t slots_frontend = 0;
    uint64_t slots_bad_spec = 0;
    uint64_t slots_backend_memory = 0;
    uint64_t slots_backend_core = 0;

    // Resource-specific stall slots (subset of backend slots).
    uint64_t slots_rob_stall = 0;
    uint64_t slots_rs_stall = 0;
    uint64_t slots_sb_stall = 0;

    int width = 4;
    double freq_ghz = 3.5;

    // Derived metrics.
    double ipc() const;
    double seconds() const;
    double branchMpki() const;
    double l1dMpki() const;
    double l2Mpki() const;
    double l3Mpki() const;
    double l1iMpki() const;
    TopDown topdown() const;
    /** Resource stall cycles per kilo-instruction. */
    double robStallsPki() const;
    double rsStallsPki() const;
    double sbStallsPki() const;
    double anyResourceStallsPki() const;
};

/**
 * A share of this process's CPUs, held by an instrumented run while it
 * runs. The core model claims one CPU for the thread that emits its
 * events, or three when it pipelines (that thread plus its two stage
 * threads), and it pipelines only if the three fit beside every other
 * claim within usableCpus(); a pipelined run whose CPUs are claimed
 * over by runs that start later goes on inline. So a serial sweep
 * pipelines on a machine with spare cores, while farm workers at full
 * occupancy stay inline. Holding claims is also how a caller keeps runs
 * inline: claim every usable CPU and no run's helpers fit.
 */
class CpuClaim
{
  public:
    CpuClaim() = default;
    CpuClaim(CpuClaim&& other) noexcept;
    CpuClaim& operator=(CpuClaim&& other) noexcept;
    CpuClaim(const CpuClaim&) = delete;
    CpuClaim& operator=(const CpuClaim&) = delete;
    ~CpuClaim() { release(); }

    /** Claims `cpus` whether or not they fit. */
    static CpuClaim hold(int cpus);

    /** Claims `cpus` only if they fit beside every claim now held; an
     *  empty claim otherwise. */
    static CpuClaim tryHold(int cpus);

    /** CPUs in this process's affinity mask (at least 1). */
    static int usableCpus();

    /** CPUs claimed process-wide right now. */
    static int claimed();

    /** CPUs this claim holds (0 when empty). */
    int cpus() const { return cpus_; }

    /** Returns the CPUs early. */
    void release();

  private:
    explicit CpuClaim(int cpus) : cpus_(cpus) {}

    int cpus_ = 0;
};

/**
 * What the memory/branch stage learned about one probe event; the timing
 * stage needs nothing else from the memory system. 12 bytes, so a ring
 * slot of 256 events and their outcomes stays small.
 */
struct MemOutcome
{
    enum Flags : uint8_t {
        kItlbMiss = 1,  ///< Block: the fetch missed the iTLB.
        kPredicted = 2, ///< Branch: predicted direction was taken.
        kBtbHit = 4,    ///< Branch: the BTB hit (probed only when a taken
                        ///< branch was predicted taken).
    };

    uint16_t latency;   ///< Load/store: access latency. Block: the fetch
                        ///< penalty (worst L1i miss plus any iTLB miss).
    uint16_t lines;     ///< Lines touched: L1d or L1i accesses.
    uint16_t l1_misses; ///< L1d, or for a block L1i, misses.
    uint16_t l2_misses; ///< Data side only.
    uint16_t l3_misses; ///< Data side only.
    uint8_t flags;      ///< Flags bits.
    uint8_t unused;
};

static_assert(sizeof(MemOutcome) == 12, "outcomes must stay compact");

class ReferenceCoreModel;

/**
 * The memory/branch stage: the cache hierarchy, the iTLB, the branch
 * predictor, the BTB and the per-site fetch plans. It turns each probe
 * event into a MemOutcome, in stream order. None of its state depends on
 * time, so it can run ahead of the timing stage on another thread.
 */
class alignas(64) MemoryStage
{
  public:
    explicit MemoryStage(const CoreParams& params);

    /** Outcomes for `count` records, written to `out` in order. */
    void run(const trace::ProbeEvent* events, MemOutcome* out, size_t count);

    /** Fetches a block through its fetch plan (L1i lines, iTLB page). */
    MemOutcome block(const trace::CodeSite& site);

    /** Predicts and trains the branch ending `site`, probes the BTB when
     *  a taken branch was predicted taken, and records both in `o`. */
    void branch(const trace::CodeSite& site, bool taken, MemOutcome& o);

    /** A load or store: one L1d access per line the bytes span. */
    MemOutcome data(uint64_t addr, uint32_t bytes);

  private:
    friend class ReferenceCoreModel;

    /**
     * Precomputed instruction-fetch geometry of one code site. The
     * block's L1i line span and iTLB page are pure functions of the
     * site's (immutable) size and its layout address, so they are
     * computed once per site — and rebuilt only if a relayout pass
     * rewrites the address (`address` is the validity key). `slots`
     * additionally remembers, per line, the cache way the line was last
     * resident in; Cache::touchIfResident() re-validates the hint on
     * every use, so a stale slot costs one failed tag compare, never a
     * wrong result.
     */
    struct SiteFetchPlan
    {
        /// No site ever lands at this address (layout starts at
        /// SiteRegistry::kTextBase and grows).
        static constexpr uint64_t kNoAddress = UINT64_MAX;

        uint64_t address = kNoAddress; ///< site.address at build time.
        uint64_t first_line = 0;       ///< First L1i line index.
        uint64_t page = 0;             ///< iTLB page (address >> 12).
        uint32_t line_count = 0;       ///< Lines spanned by the block.
        std::vector<uint32_t> slots;   ///< Resident-way hint per line.
    };

    /** The fetch plan for `site` (built or rebuilt on demand). */
    SiteFetchPlan& planFor(const trace::CodeSite& site);
    void rebuildPlan(SiteFetchPlan& plan, const trace::CodeSite& site);

    LatencyParams lat_;
    CacheHierarchy caches_;
    Tlb itlb_;
    std::unique_ptr<BranchPredictor> predictor_;
    Btb btb_;

    /** Per-site fetch plans, indexed by trace::CodeSite::id (grown on
     *  demand). */
    std::vector<SiteFetchPlan> plans_;
};

/**
 * The timing stage: dispatch, the ROB/RS/store-buffer windows, the
 * MSHRs, CoreStats, per-site attribution and the phase samples. It
 * consumes the events together with their MemOutcomes and makes every
 * counter increment itself, so phase samples snapshot the miss counters
 * at exact instruction boundaries.
 */
class alignas(64) TimingStage
{
  public:
    explicit TimingStage(const CoreParams& params);

    /** Consumes `count` records and their outcomes, in order. */
    void run(const trace::ProbeEvent* events, const MemOutcome* outcomes,
             size_t count);

    /** The event handlers. */
    void block(const trace::CodeSite& site, const MemOutcome& o);
    void branch(const trace::CodeSite& site, bool taken,
                const MemOutcome& o);
    void load(const MemOutcome& o);
    void store(const MemOutcome& o);

    /** Drains the machine and returns the statistics. */
    CoreStats finish();

    const std::vector<SiteUarch>& attributionPerSite() const
    {
        return attr_sites_;
    }
    const SiteUarch& attributionUnattributed() const
    {
        return attr_unattributed_;
    }
    const std::vector<PhaseSample>& phaseSamples() const { return phase_; }

  private:
    friend class ReferenceCoreModel;

    enum class StallCause : uint8_t
    {
        Frontend,
        BadSpeculation,
        BackendMemory,
        BackendCore,
    };

    /** Advances dispatch to `target_cycle`, attributing empty slots. */
    void advanceTo(uint64_t target_cycle, StallCause cause);

    /** Dispatches `count` retiring instructions (handles cycle rollover
     *  and frontend-availability stalls). Event-driven: the whole span
     *  advances in closed form — see DESIGN.md §13 for the argument
     *  that this is bit-exact vs the instruction-stepped oracle. */
    void dispatch(uint32_t count);

    /** Stalls dispatch until the frontend has instructions available. */
    void resolveFrontend();

    /** Stalls dispatch until the window has room for `count` entries.
     *  Inline room check; the rare full case runs waitForSpace(). */
    void ensureRobSpace(uint32_t count);
    void ensureRsSpace(uint32_t count);
    void ensureSbSpace(uint32_t count);

    struct WindowEntry
    {
        uint64_t time;   ///< Retire/issue/drain cycle.
        uint32_t count;  ///< Instructions coalesced into this entry.
        bool is_mem;     ///< Blocking on memory (stall attribution).
    };

    /** Pops `window`'s expired heads and, while `occupancy + count` still
     *  exceeds `size`, stalls dispatch to the head's time, charging the
     *  stall slots to `stall_slots` too. A memory-bound head stalls as
     *  backend-memory only if `memory_cause` is set. */
    void waitForSpace(const RingBuffer<WindowEntry>& window,
                      const uint64_t& occupancy, uint64_t size,
                      uint32_t count, bool memory_cause,
                      uint64_t& stall_slots);

    /** Pushes `count` instructions completing at `complete` into the ROB
     *  (space must have been ensured). */
    void robPush(uint64_t complete, uint32_t count, bool is_mem);

    /** Pushes an RS entry freed at `free` (space must have been ensured). */
    void rsPush(uint64_t free, uint32_t count, bool is_mem);

    /** Pushes `count` store-buffer entries draining at `drain_time`
     *  (space must have been ensured; completion times made monotone). */
    void sbPush(uint64_t drain_time, uint32_t count);

    /** Charges a data access's line and miss counts. */
    void chargeData(const MemOutcome& o);

    /** Frees entries whose time has passed. */
    void drain();

    /** Per-site bucket for `site_id` (grows the table on demand). */
    SiteUarch& attrAt(uint32_t site_id);

    /** Records a cumulative PhaseSample and arms the next window. */
    void capturePhase();

    CoreParams params_;

    // Dispatch state.
    uint64_t cur_cycle_ = 0;
    uint32_t slots_in_cycle_ = 0;

    // Frontend availability.
    uint64_t fetch_ready_ = 0;
    StallCause fetch_reason_ = StallCause::Frontend;

    // Window occupancy. Ring buffers instead of deques: every entry holds
    // at least one occupant, so the entry count never exceeds the
    // modelled structure size and these never allocate (see
    // uarch/ringbuf.h). Expired entries are popped lazily, by the
    // occupancy consumers (ensure*Space); until then they still count
    // toward *_count_ (DESIGN.md §13).
    RingBuffer<WindowEntry> rob_;
    RingBuffer<WindowEntry> rs_;
    RingBuffer<WindowEntry> sb_;
    uint64_t rob_count_ = 0;
    uint64_t rs_count_ = 0;
    uint64_t sb_count_ = 0;
    uint64_t rob_last_complete_ = 0;
    uint64_t rs_last_free_ = 0;
    uint64_t sb_last_drain_ = 0;

    uint64_t last_load_complete_ = 0;
    RingBuffer<uint64_t> mshr_; ///< Completion times of in-flight misses.

    /** mshr_.front() (UINT64_MAX when empty), cached so a load skips the
     *  head-pruning loop entirely while the oldest miss is still in the
     *  future — the common case on a streaming miss train. */
    uint64_t mshr_head_ = UINT64_MAX;

    CoreStats stats_;

    // Per-site attribution (CoreParams::attribute_sites). attr_cur_ is
    // null when attribution is off — a single predictable branch guards
    // every mirrored charge — and otherwise always points at a live
    // bucket (initially the unattributed one). It is refreshed on every
    // block/branch probe, the only operations that can grow attr_sites_,
    // so it never dangles across intervening loads/stores.
    std::vector<SiteUarch> attr_sites_;
    SiteUarch attr_unattributed_;
    SiteUarch* attr_cur_ = nullptr;

    // Phase time-series (CoreParams::phase_window). next_phase_ stays at
    // UINT64_MAX when sampling is off, so the hot dispatch loop pays one
    // never-taken compare per instruction.
    std::vector<PhaseSample> phase_;
    uint64_t next_phase_ = UINT64_MAX;
};

/** How a model's probe stream was scheduled, and where its time went.
 *  Busy and wait seconds are host wall time, summed over runs; they are
 *  measured on the pipelined schedule only (inline, both stages are the
 *  emitting thread's own time). */
struct ScheduleStats
{
    bool pipelined = false;     ///< A run used the stage threads.
    double memory_busy_s = 0.0; ///< Memory/branch stage at work.
    double memory_wait_s = 0.0; ///< ... waiting for events.
    double timing_busy_s = 0.0; ///< Timing stage at work.
    double timing_wait_s = 0.0; ///< ... waiting for outcomes.
    double codec_wait_s = 0.0;  ///< Emitting thread blocked on a full
                                ///< ring or on the detach barrier.
};

/** The pipeline of one threaded run (core.cc). */
struct CorePipeline;

/**
 * The core model; attach with trace::setSink(&model), run the workload,
 * detach, then call finish().
 *
 * Two stages each own their state: a MemoryStage turns events into
 * outcomes and a TimingStage consumes both. On its first batch a run
 * claims CPUs (CpuClaim): if two spare ones fit, the stages run on their
 * own threads, fed through a ring of 256-event slots, while the emitting
 * thread goes on running the codec; otherwise both stages run back to
 * back on the emitting thread. A pipelined run that finds the process's
 * CPUs overclaimed at a batch drains its ring and continues inline.
 * Both schedules run the same stage code, so every result is identical
 * either way (DESIGN.md §14). Detaching (onDetach) drains the ring and
 * joins the threads.
 */
class CoreModel : public trace::ProbeSink
{
  public:
    explicit CoreModel(const CoreParams& params);
    ~CoreModel() override;

    // ProbeSink interface. The per-event entry points finish any
    // pipelined work first, then run both stages for the one event.
    void onBlock(const trace::CodeSite& site) override;
    void onBranch(const trace::CodeSite& site, bool taken) override;
    void onLoad(uint64_t addr, uint32_t bytes) override;
    void onStore(uint64_t addr, uint32_t bytes) override;

    /** Consumes a batch with no per-event virtual dispatch, on either
     *  schedule. Records are handled in order, so the result does not
     *  depend on how the stream is split into batches. */
    void onBatch(const trace::ProbeEvent* events, size_t count) override;

    /** The detach barrier: every delivered event is consumed, the stage
     *  threads are joined and the run's CPU claim is returned. */
    void onDetach() override;

    /** Finalizes accounting and returns the statistics. */
    CoreStats finish();

    const CoreParams& params() const { return params_; }

    /** Per-site attribution, indexed by trace::CodeSite::id (shorter than
     *  the registry if trailing sites saw no events). Totals are exact
     *  only after finish() has charged the drain. Empty when
     *  CoreParams::attribute_sites is off. */
    const std::vector<SiteUarch>& attributionPerSite() const
    {
        return stages_->timing.attributionPerSite();
    }

    /** Charges that predate the first block probe (attribution on). */
    const SiteUarch& attributionUnattributed() const
    {
        return stages_->timing.attributionUnattributed();
    }

    bool attributionEnabled() const { return params_.attribute_sites; }

    /** Cumulative snapshots every CoreParams::phase_window retired
     *  instructions; finish() appends a final end-of-run sample. Empty
     *  when phase_window is 0. */
    const std::vector<PhaseSample>& phaseSamples() const
    {
        return stages_->timing.phaseSamples();
    }

    /** The schedule and stage times of the runs so far (final after
     *  detach). */
    const ScheduleStats& schedule() const { return schedule_; }

  protected:
    // The test-only instruction-stepped oracle
    // (tests/support/reference_core.h) steps the stages' state through
    // its own handlers.
    MemoryStage& memory() { return stages_->memory; }
    TimingStage& timing() { return stages_->timing; }

    CoreParams params_;

  private:
    /**
     * Both stages in one allocation, each on its own cache lines
     * (alignas), so stage threads never share a line. Being members of
     * one object also tells the compiler that a store to one stage's
     * counters never changes the other's state, which the fused inline
     * loop needs to keep that state in registers.
     */
    struct Stages
    {
        explicit Stages(const CoreParams& params)
            : memory(params), timing(params)
        {
        }

        /** Runs both stages on this thread, one event at a time. */
        void runInline(const trace::ProbeEvent* events, size_t count);

        MemoryStage memory;
        TimingStage timing;
    };

    /** Claims CPUs for a run and, if two spare ones fit, starts the
     *  stage threads. */
    void startRun();

    /** Ends the run: drains and joins a pipeline, returns the claim. */
    void endRun();

    std::unique_ptr<Stages> stages_;
    std::unique_ptr<CorePipeline> pipeline_; ///< Threaded runs only.
    CpuClaim claim_;                         ///< Held while a run runs.
    ScheduleStats schedule_;
    bool finished_ = false;
};

// The window admission checks and pushes are defined here, inline, so
// both the production handlers and the test-only oracle compile them
// into their hot paths.

inline void
TimingStage::ensureRobSpace(uint32_t count)
{
    if (rob_count_ + count > static_cast<uint64_t>(params_.rob_size)) {
        waitForSpace(rob_, rob_count_, params_.rob_size, count, true,
                     stats_.slots_rob_stall);
    }
}

inline void
TimingStage::ensureRsSpace(uint32_t count)
{
    // With issue_at_dispatch rsPush() keeps the RS empty, and no caller
    // asks for more than rs_size entries, so this never stalls.
    if (rs_count_ + count > static_cast<uint64_t>(params_.rs_size)) {
        waitForSpace(rs_, rs_count_, params_.rs_size, count, true,
                     stats_.slots_rs_stall);
    }
}

inline void
TimingStage::ensureSbSpace(uint32_t count)
{
    // The paper groups store-buffer stalls under core bound (Fig 5e-h
    // discussion), so a full SB never stalls as backend-memory.
    if (sb_count_ + count > static_cast<uint64_t>(params_.sb_size)) {
        waitForSpace(sb_, sb_count_, params_.sb_size, count, false,
                     stats_.slots_sb_stall);
    }
}

inline void
TimingStage::robPush(uint64_t complete, uint32_t count, bool is_mem)
{
    // In-order retirement: completion times are made monotone so an entry
    // cannot retire before its predecessors. The new time is after
    // cur_cycle_, so it never coalesces into an expired entry.
    complete = std::max(complete, rob_last_complete_);
    rob_last_complete_ = complete;
    if (!rob_.empty() && rob_.back().time == complete
        && rob_.back().is_mem == is_mem) {
        rob_.back().count += count;
    } else {
        rob_.push_back({complete, count, is_mem});
    }
    rob_count_ += count;
}

inline void
TimingStage::rsPush(uint64_t free, uint32_t count, bool is_mem)
{
    if (params_.issue_at_dispatch) {
        return; // be_op2: instructions leave the RS immediately.
    }
    free = std::max(free, rs_last_free_);
    rs_last_free_ = free;
    if (!rs_.empty() && rs_.back().time == free
        && rs_.back().is_mem == is_mem) {
        rs_.back().count += count;
    } else {
        rs_.push_back({free, count, is_mem});
    }
    rs_count_ += count;
}

/** Runs a callable under this core model and returns its stats.
 *  Detaching consumes every pending event before finish() reads the
 *  state. */
template <typename Workload>
CoreStats
simulate(const CoreParams& params, Workload&& workload)
{
    CoreModel model(params);
    trace::setSink(&model);
    workload();
    trace::setSink(nullptr);
    return model.finish();
}

} // namespace vtrans::uarch

#endif // VTRANS_UARCH_CORE_H_
