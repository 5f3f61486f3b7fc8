#include "workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <type_traits>

#include "chunk/chunk.h"
#include "codec/decoder.h"
#include "codec/params.h"
#include "codec/transcode.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/workload.h"
#include "farm/farm.h"
#include "farm/runlog.h"
#include "obs/hotspots.h"
#include "trace/probe.h"
#include "uarch/config.h"
#include "video/vbench.h"

namespace perfbench {

namespace {

namespace vt = vtrans;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workload definitions. Changing any of these changes what the benchmark
// measures: regenerate golden.txt and re-measure the baseline.

/** Streams and grids come in this many seed variants (seed mod this),
 *  so every run log a seed can produce has a committed digest. */
constexpr uint64_t kVariants = 16;

/** `sweep`: the paper's crf x refs grid (medium preset, baseline core)
 *  on one clip, at both ends of the refs range. The seed picks each
 *  row's crf within [base, base + kCrfJitter) and the order the 10
 *  points run in. */
const char* const kSweepVideo = "cricket";
constexpr double kSweepClip = 0.2;
constexpr int kCrfRows[] = {18, 24, 30, 36, 42};
constexpr int kCrfJitter = 3;
constexpr int kRefs[] = {1, 4};

/** `chunked`: one round = one upload of each video, all at one clip
 *  length, on a fresh farm. Each round runs in a forked child (see
 *  inChild()), whose `core::cachedSplit` memo starts empty, so every
 *  round pays its splits. The two lengths give the uploads different
 *  frame and chunk counts. */
const std::vector<std::string> kChunkVideos = {"desktop", "cricket", "game2",
                                               "girl", "holi"};
const std::vector<double> kChunkClips = {0.17, 0.23};
constexpr int kChunkFrames = 3;
constexpr double kChunkRate = 100.0; ///< Uploads per simulated second.

/** Every farm calibrates its predictor on this clip (the smallest
 *  resolution class keeps calibration a small share of a drain). */
const char* const kReferenceVideo = "cat";

/** Set-ups whose median is setup_s: the measured process's own plus
 *  this many less one in forked children (see setUpInChildren()). */
constexpr int kSetupReps = 7;

// ---------------------------------------------------------------------
// Metric names and units.

struct MetricDef
{
    const char* name;
    const char* unit;
};

const std::vector<MetricDef>&
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"jobs_per_s", "1/s"},
        {"peak_rss_mb", "MiB"},
        {"sim_p50_ms", "sim_ms"},
        {"sim_jobs_per_s", "1/sim_s"},
    };
    return defs;
}

const std::vector<MetricDef>&
perLayerDefs()
{
    static const std::vector<MetricDef> defs = {
        {"sim_mips", "inst/us"},
        {"failed_frac", "fraction"},
        {"uarch.model_s", "s"},
        {"uarch.ns_per_event", "ns"},
        {"uarch.sim_instructions", "count"},
        {"uarch.sim_cycles", "count"},
        {"trace.emit_s", "s"},
        {"trace.events", "count"},
        {"trace.overhead_s", "s"},
        {"codec.transcode_s", "s"},
        {"codec.decode_s", "s"},
        {"video.mezzanine_s", "s"},
        {"core.warmup_s", "s"},
        {"obs.tee_s", "s"},
        {"farm.submit_s", "s"},
        {"farm.drain_s", "s"},
        {"farm.orchestrate_s", "s"},
        {"farm.compute_s", "s"},
        {"farm.pool_busy_frac", "fraction"},
        {"farm.cache.lookups", "count"},
        {"farm.cache.hits", "count"},
        {"farm.cache.misses", "count"},
        {"farm.cache.inflight_waits", "count"},
        {"farm.cache.hit_ratio", "fraction"},
        {"farm.sim_queue_wait_ms", "sim_ms"},
        {"farm.prediction_error", "fraction"},
        {"farm.retries", "count"},
        {"farm.shed", "count"},
        {"farm.failed", "count"},
        {"chunk.split_s", "s"},
        {"chunk.stitch_s", "s"},
        {"chunk.segments", "count"},
        {"chunk.chunks", "count"},
        {"ledger.wall_s", "s"},
        {"ledger.unattributed_s", "s"},
        {"ledger.residual_frac", "fraction"},
    };
    return defs;
}

/** Sets a declared metric (its unit comes from the declaration). */
void
put(Metrics& metrics, const std::string& name, double value)
{
    for (const auto* defs : {&endToEndDefs(), &perLayerDefs()}) {
        for (const MetricDef& d : *defs) {
            if (name == d.name) {
                metrics.set(name, value, d.unit);
                return;
            }
        }
    }
    VT_FATAL("perfbench: undeclared metric ", name);
}

/** All declared metrics of a kind at 0 ("this workload does not run or
 *  does not decompose that layer"), in declaration order. */
Metrics
zeroed(const std::vector<MetricDef>& defs)
{
    Metrics m;
    for (const MetricDef& d : defs) {
        m.set(d.name, 0.0, d.unit);
    }
    return m;
}

/**
 * The time of a unit of work repeated within a run: its fastest
 * repetition. Work on a shared host is only ever slowed by interference
 * (co-tenants, frequency dips), in phases that last from seconds to a
 * minute, so the fastest of many repetitions spread over the run
 * measures the program and a median would measure the host.
 */
double
fastest(const std::vector<double>& times)
{
    return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

/** Calls `unit(0)`, `unit(1)`, ... until `seconds` have passed, and at
 *  least twice. */
template <typename Unit>
void
repeatFor(double seconds, Unit&& unit)
{
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 2 || since(t0) < seconds; ++rep) {
        unit(rep);
    }
}

/**
 * The resident high-water mark of this process or of any child it forked
 * and waited for, in MiB. This process's own comes from VmHWM, because
 * getrusage's ru_maxrss keeps the high-water mark of the program that
 * exec'd this one (here, the Python driver).
 */
double
peakRssMb()
{
    double self_kib = 0.0;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f) != nullptr) {
            if (std::sscanf(line, "VmHWM: %lf kB", &self_kib) == 1) {
                break;
            }
        }
        std::fclose(f);
    }
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return std::max(self_kib, static_cast<double>(children.ru_maxrss))
           / 1024.0;
}

/**
 * Runs `work` in a child forked from this process and returns its
 * result, a trivially copyable value sent back over a pipe. The child
 * starts with a copy of this process's state, caches included, and
 * nothing it changes comes back. Call it only while this process runs
 * no other thread. The child dies with this process, and this waits
 * for it to end.
 */
template <typename Work>
auto
inChild(Work&& work)
{
    using T = decltype(work());
    static_assert(std::is_trivially_copyable_v<T>);
    int fds[2];
    if (pipe(fds) != 0) {
        VT_FATAL("perfbench: pipe failed");
    }
    const pid_t parent = getpid();
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        VT_FATAL("perfbench: fork failed");
    }
    if (pid == 0) {
        close(fds[0]);
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) {
            _exit(1);
        }
        const T value = work();
        const bool sent = write(fds[1], &value, sizeof value) == sizeof value;
        std::fflush(nullptr);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    T value{};
    const bool got = read(fds[0], &value, sizeof value)
                     == static_cast<ssize_t>(sizeof value);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        VT_FATAL("perfbench: a forked child failed");
    }
    return value;
}

// ---------------------------------------------------------------------
// Correctness bookkeeping.

/** Counts operations and failures; in record mode stores every observed
 *  output into the golden table instead of checking it. */
class Tally
{
  public:
    Tally(const Golden* golden, Golden* record,
          std::vector<std::string>* notes)
        : golden_(golden), record_(record), notes_(notes)
    {
    }

    void expect(const std::string& key, uint64_t value)
    {
        ++attempted_;
        if (record_ != nullptr) {
            record_->set(key, value);
        } else if (!golden_->matches(key, value)) {
            fail(key + " does not match its golden fingerprint");
        }
    }

    void require(bool ok, const std::string& what)
    {
        ++attempted_;
        if (!ok) {
            fail(what);
        }
    }

    /** Adds operations counted elsewhere (in a forked child). */
    void add(int64_t attempted, int64_t failed, const std::string& what)
    {
        attempted_ += attempted;
        for (int64_t i = 0; i < failed; ++i) {
            fail(what);
        }
    }

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }

  private:
    void fail(const std::string& what)
    {
        ++failed_;
        if (notes_ != nullptr && notes_->size() < 20) {
            notes_->push_back(what);
        }
    }

    const Golden* golden_;
    Golden* record_;
    std::vector<std::string>* notes_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

std::string
centi(double seconds)
{
    return std::to_string(static_cast<int>(seconds * 100.0 + 0.5));
}

// ---------------------------------------------------------------------
// Set-up: probe-site warm-up and source (mezzanine) builds.

/** What a workload's set-up took. */
struct Setup
{
    double warmup_s = 0.0;
    double sources_s = 0.0;

    double seconds() const { return warmup_s + sources_s; }
};

double
warmup(Ledger& ledger)
{
    const auto t0 = Clock::now();
    Ledger::Scope span(ledger, "farm.warmupProcess");
    vt::farm::Farm::warmupProcess();
    return since(t0);
}

using Sources = std::vector<std::pair<std::string, double>>;

/** Builds every source through the process cache the measured phase
 *  reads; returns the seconds taken. */
double
buildSources(const Sources& sources, Ledger& ledger)
{
    const auto t0 = Clock::now();
    for (const auto& [video, seconds] : sources) {
        Ledger::Scope span(ledger, "core.mezzanine");
        vt::core::mezzanine(video, seconds);
    }
    return since(t0);
}

/** Counts probe events (the sink the `trace` layer is timed with). */
class CountingSink : public vt::trace::ProbeSink
{
  public:
    void onBlock(const vt::trace::CodeSite&) override { ++events; }
    void onBranch(const vt::trace::CodeSite&, bool) override { ++events; }
    void onLoad(uint64_t, uint32_t) override { ++events; }
    void onStore(uint64_t, uint32_t) override { ++events; }
    void onBatch(const vt::trace::ProbeEvent*, size_t count) override
    {
        events += count;
    }

    uint64_t events = 0;
};

// ---------------------------------------------------------------------
// sweep

struct SweepPoint
{
    int crf = 0;
    int refs = 0;
};

std::vector<SweepPoint>
sweepGrid(uint64_t seed)
{
    vt::Rng rng(0x5eeb0000ull + seed % kVariants);
    std::vector<SweepPoint> grid;
    for (int base : kCrfRows) {
        const int crf = base + static_cast<int>(rng.below(kCrfJitter));
        for (int refs : kRefs) {
            grid.push_back({crf, refs});
        }
    }
    for (size_t i = grid.size(); i > 1; --i) {
        std::swap(grid[i - 1], grid[rng.below(i)]);
    }
    return grid;
}

vt::core::RunConfig
sweepConfig(const SweepPoint& p)
{
    vt::core::RunConfig cfg;
    cfg.video = kSweepVideo;
    cfg.seconds = kSweepClip;
    cfg.params = vt::codec::presetParams("medium");
    cfg.params.crf = p.crf;
    cfg.params.refs = p.refs;
    cfg.core = vt::uarch::baselineConfig();
    return cfg;
}

std::string
sweepKey(const SweepPoint& p)
{
    return std::string("sweep/") + kSweepVideo + "/crf"
           + std::to_string(p.crf) + "/refs" + std::to_string(p.refs);
}

/** One pass over the grid; returns its host seconds and, in `times`,
 *  each point's. */
double
sweepPass(const std::vector<SweepPoint>& grid, Ledger& ledger, Tally& tally,
          std::vector<vt::core::RunResult>* results,
          std::vector<double>* times = nullptr)
{
    results->clear();
    if (times != nullptr) {
        times->clear();
    }
    const auto t0 = Clock::now();
    for (size_t i = 0; i < grid.size(); ++i) {
        const auto p0 = Clock::now();
        Ledger::Scope point(ledger, "sweep.point", i + 1);
        Ledger::Scope span(ledger, "core.runInstrumented", i + 1);
        results->push_back(vt::core::runInstrumented(sweepConfig(grid[i])));
        if (times != nullptr) {
            times->push_back(since(p0));
        }
    }
    const double wall = since(t0);
    for (size_t i = 0; i < grid.size(); ++i) {
        tally.expect(sweepKey(grid[i]), vt::farm::fingerprint((*results)[i]));
    }
    return wall;
}

uint64_t
instructions(const std::vector<vt::core::RunResult>& results)
{
    uint64_t sum = 0;
    for (const auto& r : results) {
        sum += r.core.instructions;
    }
    return sum;
}

void
runSweep(const RunOptions& opt, const Setup& setup, Ledger& ledger,
         Tally& tally, Metrics& out)
{
    const auto grid = sweepGrid(opt.seed);

    std::vector<vt::core::RunResult> results;
    std::vector<double> lat_ms;
    double sim_total = 0.0;
    auto simulated = [&] {
        for (const auto& r : results) {
            lat_ms.push_back(r.transcode_seconds * 1e3);
            sim_total += r.transcode_seconds;
        }
    };

    if (!opt.trace) {
        // Each point's time is its fastest pass (see fastest()), and the
        // grid's time is the sum of those.
        std::vector<std::vector<double>> point_times(grid.size());
        std::vector<double> times;
        Ledger off(false);
        repeatFor(opt.seconds, [&](int pass) {
            const double wall = sweepPass(grid, off, tally, &results, &times);
            for (size_t i = 0; i < grid.size(); ++i) {
                point_times[i].push_back(times[i]);
            }
            std::fprintf(stderr, "perfbench: sweep pass %d: %.3f s\n",
                         pass + 1, wall);
        });
        double grid_s = 0.0;
        for (const auto& t : point_times) {
            grid_s += fastest(t);
        }
        simulated();
        put(out, "jobs_per_s", static_cast<double>(grid.size()) / grid_s);
        put(out, "sim_p50_ms", median(lat_ms));
        put(out, "sim_jobs_per_s", grid.size() / sim_total);
        return;
    }

    // Per-layer run: one pass untraced (the overhead reference) and one
    // traced; then, per point and back to back so that host drift cancels,
    // the same transcode natively, with a counting sink, under the core
    // model, and under the model with the hotspot tee. Each layer is the
    // difference of two of these timed calls on identical work.
    Ledger off(false);
    double untraced = 0.0;
    {
        Ledger::Scope span(ledger, "perfbench.untraced_unit");
        untraced = sweepPass(grid, off, tally, &results);
    }
    const double traced = sweepPass(grid, ledger, tally, &results);
    simulated();
    uint64_t events = 0;
    uint64_t cycles = 0;
    double native = 0.0;
    double counted = 0.0;
    double modeled = 0.0;
    double teed_s = 0.0;
    auto timed = [&](const char* name, size_t point, auto&& call) {
        const auto t0 = Clock::now();
        Ledger::Scope span(ledger, name, point);
        call();
        return since(t0);
    };
    for (size_t i = 0; i < grid.size(); ++i) {
        const auto cfg = sweepConfig(grid[i]);
        const auto& source = vt::core::mezzanine(cfg.video, cfg.seconds);
        Ledger::Scope point(ledger, "sweep.decompose", i + 1);
        native += timed("core.runNative", i + 1,
                        [&] { vt::core::runNative(cfg); });
        CountingSink sink;
        counted += timed("codec.transcode+count", i + 1, [&] {
            vt::trace::arena().reset();
            vt::trace::setSink(&sink, vt::trace::defaultBatchCapacity());
            vt::codec::transcode(source, cfg.params);
            vt::trace::setSink(nullptr);
        });
        events += sink.events;
        modeled += timed("core.runInstrumented", i + 1,
                         [&] { vt::core::runInstrumented(cfg); });
        vt::core::RunResult teed;
        vt::obs::setHotspotsEnabled(true);
        teed_s += timed("core.runInstrumented+hotspots", i + 1,
                        [&] { teed = vt::core::runInstrumented(cfg); });
        vt::obs::setHotspotsEnabled(false);
        tally.require(vt::farm::fingerprint(teed)
                          == vt::farm::fingerprint(results[i]),
                      "hotspot tee changed the result of " + sweepKey(grid[i]));
        cycles += results[i].core.cycles;
    }
    const double model_s = modeled - counted;
    put(out, "sim_mips", instructions(results) / (traced * 1e6));
    put(out, "uarch.model_s", model_s);
    put(out, "uarch.ns_per_event", events ? model_s * 1e9 / events : 0.0);
    put(out, "uarch.sim_instructions",
        static_cast<double>(instructions(results)));
    put(out, "uarch.sim_cycles", static_cast<double>(cycles));
    put(out, "trace.emit_s", counted - native);
    put(out, "trace.events", static_cast<double>(events));
    put(out, "trace.overhead_s", traced - untraced);
    put(out, "codec.transcode_s", native);
    put(out, "video.mezzanine_s", setup.sources_s);
    put(out, "core.warmup_s", setup.warmup_s);
    put(out, "obs.tee_s", teed_s - modeled);
}

// ---------------------------------------------------------------------
// chunked

/** Sorted arrival times of a Poisson process at `rate` conditioned on
 *  its n-th arrival falling at n / rate: the other n - 1 are uniform
 *  order statistics on [0, n / rate]. Pinning the span keeps every
 *  variant's offered rate exactly the nominal one. */
std::vector<double>
arrivals(uint64_t seed, size_t n, double rate)
{
    const double span = static_cast<double>(n) / rate;
    vt::Rng rng(seed);
    std::vector<double> times(n, span);
    for (size_t i = 0; i + 1 < n; ++i) {
        times[i] = rng.uniform() * span;
    }
    std::sort(times.begin(), times.end());
    return times;
}

/** What one round measured. */
struct Round
{
    size_t graphs = 0;
    double submit_s = 0.0;
    double drain_s = 0.0;
    vt::farm::FarmMetrics metrics;
    vt::farm::CacheStats cache;
    std::vector<double> lat_ms; ///< Graph latencies (stitch finish - arrival).
    int workers = 0;
    uint64_t log_digest = 0;

    double seconds() const { return submit_s + drain_s; }
};

void
putFarmLayers(Metrics& out, const Round& d)
{
    put(out, "farm.submit_s", d.submit_s);
    put(out, "farm.drain_s", d.drain_s);
    put(out, "farm.cache.lookups", static_cast<double>(d.cache.lookups));
    put(out, "farm.cache.hits", static_cast<double>(d.cache.hits));
    put(out, "farm.cache.misses", static_cast<double>(d.cache.misses));
    put(out, "farm.cache.inflight_waits",
        static_cast<double>(d.cache.inflight_waits));
    put(out, "farm.cache.hit_ratio",
        d.cache.lookups ? static_cast<double>(d.cache.hits)
                              / static_cast<double>(d.cache.lookups)
                        : 0.0);
    put(out, "farm.sim_queue_wait_ms", d.metrics.mean_queue_wait * 1e3);
    put(out, "farm.prediction_error", d.metrics.mean_prediction_error);
    put(out, "farm.retries", static_cast<double>(d.metrics.retries));
    put(out, "farm.shed", static_cast<double>(d.metrics.shed));
    put(out, "farm.failed", static_cast<double>(d.metrics.failed));
}

vt::sched::Task
chunkTask(const std::string& video)
{
    vt::sched::Task t;
    t.video = video;
    t.crf = 23;
    t.refs = 2;
    t.preset = "medium";
    return t;
}

vt::chunk::ChunkOptions
chunking()
{
    vt::chunk::ChunkOptions o;
    o.chunk_frames = kChunkFrames;
    return o;
}

std::string
chunkKey(const std::string& video, double clip)
{
    return "chunked/" + video + "/c" + centi(clip);
}

std::string
chunkLogKey(uint64_t seed, double clip)
{
    return "chunked/log/v" + std::to_string(seed % kVariants) + "/c"
           + centi(clip);
}

/** Every upload of every clip length, and each length's calibration
 *  clip. */
Sources
chunkSources()
{
    Sources sources;
    for (double clip : kChunkClips) {
        for (const auto& v : kChunkVideos) {
            sources.push_back({v, clip});
        }
        sources.push_back({kReferenceVideo, clip});
    }
    return sources;
}

/**
 * One round: submits one upload of each video through submitChunked
 * (split -> chunk encodes -> stitch) and drains. Checks every job
 * finished, every stitched stream's fingerprint and the run log's digest.
 */
Round
chunkRound(double clip, uint64_t seed, Ledger& ledger, Tally& tally,
           std::shared_ptr<vt::farm::ResultCache> memo, bool plan_cold,
           int workers = 0)
{
    Round out;
    vt::farm::FarmOptions o;
    o.clip_seconds = clip;
    o.fault_rate = 0.0;
    o.reference_video = kReferenceVideo;
    o.shared_cache = std::move(memo);
    o.cache_plan_cold = plan_cold;
    o.workers = workers;

    std::vector<std::string> order = kChunkVideos;
    vt::Rng rng(0xc4c40000ull + (seed % kVariants) * 1000
                + static_cast<uint64_t>(clip * 100.0 + 0.5));
    for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
    }
    const auto times = arrivals(rng.next(), order.size(), kChunkRate);

    vt::farm::Farm farm(o);
    auto t0 = Clock::now();
    {
        Ledger::Scope span(ledger, "farm.submit");
        for (size_t i = 0; i < order.size(); ++i) {
            vt::farm::JobRequest req;
            req.task = chunkTask(order[i]);
            req.submit_time = times[i];
            Ledger::Scope upload(ledger, "farm.submitChunked", i + 1);
            farm.submitChunked(req, chunking());
        }
    }
    out.submit_s = since(t0);
    t0 = Clock::now();
    {
        Ledger::Scope span(ledger, "farm.drain");
        farm.drain();
    }
    out.drain_s = since(t0);
    out.metrics = farm.metrics();
    out.cache = farm.cacheDrainStats();
    out.workers = farm.workers();
    out.log_digest = digest(farm.log().toJsonl());
    tally.expect(chunkLogKey(seed, clip), out.log_digest);
    for (const auto& r : farm.log().records()) {
        tally.require(r.state == vt::farm::JobState::Done,
                      "chunked job " + std::to_string(r.id) + " is "
                          + vt::farm::toString(r.state));
        if (r.kind == "stitch") {
            ++out.graphs;
            out.lat_ms.push_back(r.latency() * 1e3);
            tally.expect(chunkKey(r.video, clip), r.result_fingerprint);
        }
    }
    return out;
}

/** What a chunked round run in a forked child sends back. */
struct RoundSample
{
    double seconds = 0.0;  ///< Host seconds of submit + drain.
    double makespan = 0.0; ///< Simulated seconds.
    int64_t attempted = 0;
    int64_t failed = 0;
    size_t graphs = 0;
    std::array<double, 8> lat_ms{}; ///< The first `graphs` are used.
};

/** One untraced round in a forked child, checked there; its checks are
 *  added to `tally`. */
RoundSample
chunkRoundInChild(double clip, uint64_t seed, Tally& tally)
{
    const RoundSample sample = inChild([&] {
        Ledger off(false);
        const int64_t attempted = tally.attempted();
        const int64_t failed = tally.failed();
        const Round round = chunkRound(clip, seed, off, tally, nullptr, false);
        RoundSample s;
        tally.require(round.graphs == kChunkVideos.size()
                          && round.graphs <= s.lat_ms.size(),
                      "a chunked round did not stitch every upload");
        s.seconds = round.seconds();
        s.makespan = round.metrics.makespan;
        s.attempted = tally.attempted() - attempted;
        s.failed = tally.failed() - failed;
        s.graphs = std::min(round.graphs, s.lat_ms.size());
        std::copy_n(round.lat_ms.begin(), s.graphs, s.lat_ms.begin());
        return s;
    });
    tally.add(sample.attempted, sample.failed,
              "a check of a chunked round of " + centi(clip)
                  + " cs clips failed");
    return sample;
}

void
runChunked(const RunOptions& opt, const Setup& setup, Ledger& ledger,
           Tally& tally, Metrics& out)
{
    Ledger off(false);

    if (!opt.trace) {
        std::vector<std::vector<double>> clip_s(kChunkClips.size());
        std::vector<double> lat_ms;
        double sim = 0.0;
        size_t graphs = 0;
        repeatFor(opt.seconds, [&](int) {
            for (size_t c = 0; c < kChunkClips.size(); ++c) {
                const RoundSample r =
                    chunkRoundInChild(kChunkClips[c], opt.seed, tally);
                std::fprintf(stderr,
                             "perfbench: chunked %.2f s clips: %.3f s\n",
                             kChunkClips[c], r.seconds);
                clip_s[c].push_back(r.seconds);
                sim += r.makespan;
                graphs += r.graphs;
                lat_ms.insert(lat_ms.end(), r.lat_ms.begin(),
                              r.lat_ms.begin() + r.graphs);
            }
        });
        double host = 0.0;
        for (const auto& times : clip_s) {
            host += fastest(times);
        }
        put(out, "jobs_per_s",
            static_cast<double>(kChunkClips.size() * kChunkVideos.size())
                / host);
        put(out, "sim_p50_ms", median(lat_ms));
        put(out, "sim_jobs_per_s", graphs / sim);
        return;
    }

    // The traced round and its untraced reference (run first, in a child,
    // so that both pay their splits) are the same work.
    const double clip = kChunkClips.front();
    RoundSample untraced;
    {
        Ledger::Scope span(ledger, "perfbench.untraced_unit");
        untraced = chunkRoundInChild(clip, opt.seed, tally);
    }
    auto memo = std::make_shared<vt::farm::ResultCache>();
    Round traced;
    {
        Ledger::Scope span(ledger, "chunked.round", 1);
        traced = chunkRound(clip, opt.seed, ledger, tally, memo, false);
    }
    Round orchestrate;
    {
        Ledger::Scope span(ledger, "chunked.replan_on_warm_cache", 2);
        orchestrate = chunkRound(clip, opt.seed, ledger, tally, memo, true);
    }
    // Serial-equivalent compute: the same round on one worker. Its run
    // log is checked against the same golden digest as the traced one's.
    Round serial;
    {
        Ledger::Scope span(ledger, "chunked.serial_round", 3);
        serial = chunkRound(clip, opt.seed, ledger, tally, nullptr, false, 1);
    }

    // The chunk pipeline replayed from outside the farm on the traced
    // round's uploads: split, native segment encodes, stitch, decode. The
    // stitched bytes must equal the farm's.
    size_t segments = 0;
    size_t chunks = 0;
    for (size_t i = 0; i < kChunkVideos.size(); ++i) {
        const std::string& video = kChunkVideos[i];
        const auto params = chunkTask(video).params();
        Ledger::Scope upload(ledger, "chunked.replica", i + 1);
        vt::chunk::SplitPlan plan;
        {
            Ledger::Scope span(ledger, "chunk.split", i + 1);
            plan = vt::chunk::split(vt::core::mezzanine(video, clip), params,
                                    chunking());
        }
        segments += plan.segments.size();
        chunks += vt::chunk::groupSegments(plan.segments.size(),
                                           chunking().max_chunks)
                      .size();
        std::vector<std::vector<uint8_t>> outputs;
        for (const auto& seg : plan.segments) {
            Ledger::Scope span(ledger, "codec.transcode", i + 1);
            vt::trace::arena().reset();
            outputs.push_back(vt::codec::transcode(seg.source, params).output);
        }
        std::vector<const std::vector<uint8_t>*> parts;
        for (const auto& o : outputs) {
            parts.push_back(&o);
        }
        std::vector<uint8_t> stitched;
        {
            Ledger::Scope span(ledger, "chunk.stitch", i + 1);
            stitched = vt::chunk::stitch(parts);
        }
        tally.expect(chunkKey(video, clip),
                     vt::chunk::streamFingerprint(stitched));
        size_t frames = 0;
        {
            Ledger::Scope span(ledger, "codec.decode", i + 1);
            frames = vt::codec::decode(stitched).frames.size();
        }
        tally.require(frames == static_cast<size_t>(plan.total_frames),
                      "stitched " + video + " decodes to the wrong length");
    }

    const double compute = traced.drain_s - orchestrate.drain_s;
    putFarmLayers(out, traced);
    put(out, "farm.orchestrate_s", orchestrate.drain_s);
    put(out, "farm.compute_s", compute);
    put(out, "farm.pool_busy_frac",
        compute > 0.0 ? (serial.drain_s - orchestrate.drain_s)
                            / (traced.workers * compute)
                      : 0.0);
    put(out, "trace.overhead_s", traced.seconds() - untraced.seconds);
    put(out, "codec.transcode_s", ledger.total("codec.transcode"));
    put(out, "codec.decode_s", ledger.total("codec.decode"));
    put(out, "chunk.split_s", ledger.total("chunk.split"));
    put(out, "chunk.stitch_s", ledger.total("chunk.stitch"));
    put(out, "chunk.segments", static_cast<double>(segments));
    put(out, "chunk.chunks", static_cast<double>(chunks));
    put(out, "video.mezzanine_s", setup.sources_s);
    put(out, "core.warmup_s", setup.warmup_s);
}

// ---------------------------------------------------------------------
// Set-up of each workload, and its repetitions.

Setup
setUp(const RunOptions& opt, Ledger& ledger)
{
    Setup s;
    s.warmup_s = warmup(ledger);
    if (opt.workload == "sweep") {
        s.sources_s = buildSources({{kSweepVideo, kSweepClip}}, ledger);
    } else {
        s.sources_s = buildSources(chunkSources(), ledger);
    }
    return s;
}

/**
 * The seconds of `count` more set-ups of the workload, each in a child
 * forked from this process before it has set anything up or started a
 * thread. A child starts as cold as a fresh process, so it pays every
 * one-off cost the measured process pays (probe-site registration and
 * source builds), which repeating the set-up in this process would not. Children run one at a time, so they
 * do not slow each other.
 */
std::vector<double>
setUpInChildren(const RunOptions& opt, int count)
{
    std::vector<double> times;
    for (int i = 0; i < count; ++i) {
        times.push_back(inChild([&] {
            Ledger off(false);
            return setUp(opt, off).seconds();
        }));
    }
    return times;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"sweep", "chunked"};
    return names;
}

const std::vector<std::string>&
endToEndMetricNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto& d : endToEndDefs()) {
            n.push_back(d.name);
        }
        return n;
    }();
    return names;
}

const std::vector<std::string>&
perLayerMetricNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto& d : perLayerDefs()) {
            n.push_back(d.name);
        }
        return n;
    }();
    return names;
}

RunOutcome
runWorkload(const RunOptions& options, const Golden& golden, Ledger& ledger)
{
    const auto t0 = Clock::now();
    RunOutcome outcome;
    Tally tally(&golden, nullptr, &outcome.notes);
    Metrics metrics = options.trace ? zeroed(perLayerDefs())
                                    : zeroed(endToEndDefs());
    std::vector<double> setups;
    if (!options.trace) {
        setups = setUpInChildren(options, kSetupReps - 1);
    }
    const Setup setup = setUp(options, ledger);
    setups.push_back(setup.seconds());
    std::string line;
    for (double t : setups) {
        line += " " + std::to_string(t);
    }
    std::fprintf(stderr, "perfbench: set-up seconds:%s\n", line.c_str());
    if (options.workload == "sweep") {
        runSweep(options, setup, ledger, tally, metrics);
    } else if (options.workload == "chunked") {
        runChunked(options, setup, ledger, tally, metrics);
    } else {
        VT_FATAL("perfbench: unknown workload ", options.workload);
    }

    if (options.trace) {
        // The spans' self times plus `unattributed` add up to the
        // ledger's wall time by construction; this checks that total
        // against a clock the ledger does not own.
        const double wall = since(t0);
        const LedgerSummary summary = summarize(ledger.spans(), ledger.now());
        const double residual = std::abs(summary.accounted() - wall) / wall;
        tally.require(residual < 1e-3,
                      "span self times plus unattributed differ from the "
                      "traced wall time");
        put(metrics, "ledger.wall_s", summary.wall);
        put(metrics, "ledger.unattributed_s", summary.unattributed);
        put(metrics, "ledger.residual_frac", residual);
        put(metrics, "failed_frac",
            tally.attempted() ? static_cast<double>(tally.failed())
                                    / static_cast<double>(tally.attempted())
                              : 0.0);
    } else {
        put(metrics, "setup_s", median(setups));
        put(metrics, "peak_rss_mb", peakRssMb());
    }
    outcome.attempted = tally.attempted();
    outcome.failed = tally.failed();
    outcome.metrics = std::move(metrics);
    return outcome;
}

Golden
computeGolden()
{
    Golden golden;
    Tally tally(nullptr, &golden, nullptr);
    Ledger off(false);
    warmup(off);

    for (int base : kCrfRows) {
        for (int crf = base; crf < base + kCrfJitter; ++crf) {
            for (int refs : kRefs) {
                const SweepPoint p{crf, refs};
                tally.expect(sweepKey(p),
                             vt::farm::fingerprint(
                                 vt::core::runInstrumented(sweepConfig(p))));
            }
        }
    }

    // Every stitched stream, and each stream variant's run log of every
    // round.
    for (uint64_t v = 0; v < kVariants; ++v) {
        for (double clip : kChunkClips) {
            chunkRound(clip, v, off, tally, nullptr, false);
        }
    }
    return golden;
}

} // namespace perfbench
