#ifndef VTRANS_OBS_HOTSPOTS_H_
#define VTRANS_OBS_HOTSPOTS_H_

/**
 * @file
 * The hotspot profiler: a pure-observer ProbeSink that attributes the
 * dynamic instruction stream to code sites, the software analogue of the
 * paper's VTune hotspot analysis (§III-B). Where VTune samples a PMU and
 * maps IPs back to functions, this profiler watches the exact probe-bus
 * event stream the core timing model consumes — attached alongside the
 * model through a trace::TeeSink so the measured run is not perturbed —
 * and rolls leaf sites up into hierarchical prefixes and codec kernel
 * families ("motion estimation", "entropy coding", ...).
 *
 * Accounting mirrors uarch::CoreModel exactly: a block retires
 * `site.instructions` instructions, and each branch, load, and store
 * retires one more. Per-site instruction totals therefore sum to the
 * model's `CoreStats::instructions` counter bit-for-bit.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace/probe.h"

namespace vtrans::obs {

/** Event tallies attributed to one code site (or rollup bucket). */
struct SiteCounters
{
    uint64_t blocks = 0;       ///< Block executions (incl. branch blocks).
    uint64_t instructions = 0; ///< Retired instructions (model-exact).
    uint64_t code_bytes = 0;   ///< Code bytes fetched (site bytes × blocks).
    uint64_t branches = 0;     ///< Conditional branches executed.
    uint64_t taken = 0;        ///< Branches taken (after layout polarity).
    uint64_t loads = 0;        ///< Data loads attributed to the site.
    uint64_t stores = 0;       ///< Data stores attributed to the site.
    uint64_t load_bytes = 0;   ///< Bytes loaded.
    uint64_t store_bytes = 0;  ///< Bytes stored.

    // µarch attribution, filled only from uarch::CoreModel per-site
    // accounting (CoreParams::attribute_sites); all zero on
    // instruction-profiler-only runs. The model also tallies branches
    // per site, but that field is NOT copied here — the instruction
    // profiler merged alongside already counts the identical value.
    uint64_t cycles = 0;               ///< Core cycles charged to the site.
    uint64_t slots_retiring = 0;       ///< Dispatch slots, Top-down class.
    uint64_t slots_frontend = 0;
    uint64_t slots_bad_spec = 0;
    uint64_t slots_backend_memory = 0;
    uint64_t slots_backend_core = 0;
    uint64_t branch_mispredicts = 0;
    uint64_t l1d_accesses = 0;
    uint64_t l1d_misses = 0;
    uint64_t l2_misses = 0;
    uint64_t l3_misses = 0;
    uint64_t l1i_accesses = 0;
    uint64_t l1i_misses = 0;
    uint64_t itlb_misses = 0;
    uint64_t btb_misses = 0;

    void merge(const SiteCounters& other);

    /** True when any field (event or µarch) is non-zero. */
    bool any() const;

    // Derived per-site metrics (0 when the inputs are missing).
    double cpi() const;           ///< cycles / instructions.
    uint64_t slotsTotal() const;  ///< Sum of the five slot classes.
    double retiringShare() const;
    double frontendShare() const;
    double badSpecShare() const;
    double backendMemoryShare() const;
    double backendCoreShare() const;
    double branchMpki() const;    ///< Mispredicts per kilo-instruction.
    double l1dMpki() const;
    double l2Mpki() const;
    double l3Mpki() const;
    double l1iMpki() const;
};

/**
 * Per-run, per-thread instruction-attribution sink.
 *
 * Loads and stores carry no site on the probe bus; they are attributed
 * to the most recently executed block's site ("current site"), matching
 * how a sampling profiler attributes memory traffic to the enclosing
 * function. Events arriving before any block land in an unattributed
 * bucket.
 *
 * Not thread-safe (like every sink, it is owned by one thread's run);
 * merge finished profilers into a HotspotReport for cross-run totals.
 */
class HotspotProfiler : public trace::ProbeSink
{
  public:
    void onBlock(const trace::CodeSite& site) override;
    void onBranch(const trace::CodeSite& site, bool taken) override;
    void onLoad(uint64_t addr, uint32_t bytes) override;
    void onStore(uint64_t addr, uint32_t bytes) override;

    /** Consumes a batch directly (no per-event virtual dispatch); records
     *  are tallied in order by the same member functions, so totals match
     *  the default per-event replay bit for bit. */
    void onBatch(const trace::ProbeEvent* events, size_t count) override;

    /** Counters indexed by site id (absent ids have all-zero tallies). */
    const std::vector<SiteCounters>& perSite() const { return per_site_; }

    /** Events observed before the first block of the run. */
    const SiteCounters& unattributed() const { return unattributed_; }

    /** Total instructions across all sites plus the unattributed bucket;
     *  equals the core model's CoreStats::instructions for the same run. */
    uint64_t totalInstructions() const;

    /** Clears all tallies (new measurement run). */
    void reset();

  private:
    SiteCounters& at(uint32_t site_id);

    std::vector<SiteCounters> per_site_;
    SiteCounters unattributed_;
    int64_t current_site_ = -1; ///< Site id of the last block; -1 = none.
};

/** One row of a hotspot table: a name (site / prefix / family) + tallies. */
struct HotspotRow
{
    std::string name;
    SiteCounters counters;
};

/**
 * Maps a site name to its codec kernel family, mirroring the paper's
 * function-level hotspot grouping of x264: SAD/SATD cost kernels belong
 * to motion estimation (their dominant caller), sub-pel filters to
 * interpolation, CABAC/bitstream to entropy coding, and so on.
 */
std::string kernelFamily(const std::string& site_name);

/**
 * Aggregated hotspot totals across runs and threads.
 *
 * Thread-safe: worker threads merge their finished per-run profilers
 * concurrently. Rollups are computed on demand from the merged per-site
 * tallies.
 */
class HotspotReport
{
  public:
    /** Accumulates one finished profiler's tallies (thread-safe). */
    void merge(const HotspotProfiler& profiler);

    /** Accumulates per-site counter deltas keyed by registry site id,
     *  plus an unattributed bucket (thread-safe). This is the bridge the
     *  µarch attribution merge uses (obs/uarch.h); rows that are all
     *  zero are skipped. */
    void mergeBySiteId(const std::vector<SiteCounters>& per_site,
                       const SiteCounters& unattributed);

    /** Per-site rows sorted by instructions, descending. */
    std::vector<HotspotRow> bySite() const;

    /** Rows rolled up by leading name component ("me.sad.row" → "me.*"),
     *  sorted by instructions descending. */
    std::vector<HotspotRow> byPrefix() const;

    /** Rows rolled up by kernelFamily(), sorted by instructions desc. */
    std::vector<HotspotRow> byFamily() const;

    /** Grand totals (including the unattributed bucket). */
    SiteCounters totals() const;

    /** True if any event has been merged. */
    bool empty() const;

    /** VTune-hotspots-style text table of the top `limit` rows per
     *  rollup level (family, prefix, leaf site), with instruction
     *  percentages against the grand total. */
    std::string table(size_t limit = 10) const;

    /** VTune-style µarch attribution table: cycles, CPI, the five
     *  Top-down slot shares, and MPKIs per row, sorted by cycles
     *  descending — the paper's "hotspot function × µarch signature"
     *  view. Meaningful only after a run with per-site attribution
     *  (uarch::CoreParams::attribute_sites) has been merged. */
    std::string uarchTable(size_t limit = 10) const;

    /** The full report as a JSON document (totals + all three rollups). */
    std::string toJson() const;

    /** Writes toJson() to `path`; false (not fatal) on I/O failure. */
    bool writeJson(const std::string& path) const;

    /** Clears all merged tallies. */
    void reset();

  private:
    std::map<std::string, SiteCounters> snapshot() const;

    mutable std::mutex mu_;
    std::map<std::string, SiteCounters> by_name_;
    SiteCounters unattributed_;
};

/** Process-wide report that instrumented runs merge into when hotspot
 *  collection is enabled (see setHotspotsEnabled). */
HotspotReport& hotspotReport();

/** Turns process-wide hotspot collection on/off (default off). */
void setHotspotsEnabled(bool enabled);

/** True when instrumented runs should attach a profiler. */
bool hotspotsEnabled();

} // namespace vtrans::obs

#endif // VTRANS_OBS_HOTSPOTS_H_
