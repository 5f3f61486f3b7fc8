#include "obs/uarch.h"

#include <vector>

#include "obs/metrics.h"

namespace vtrans::obs {

namespace {
SiteCounters
toSiteCounters(const uarch::SiteUarch& u)
{
    SiteCounters c;
    c.cycles = u.cycles;
    c.slots_retiring = u.slots_retiring;
    c.slots_frontend = u.slots_frontend;
    c.slots_bad_spec = u.slots_bad_spec;
    c.slots_backend_memory = u.slots_backend_memory;
    c.slots_backend_core = u.slots_backend_core;
    // u.branches is deliberately not copied (see header).
    c.branch_mispredicts = u.branch_mispredicts;
    c.l1d_accesses = u.l1d_accesses;
    c.l1d_misses = u.l1d_misses;
    c.l2_misses = u.l2_misses;
    c.l3_misses = u.l3_misses;
    c.l1i_accesses = u.l1i_accesses;
    c.l1i_misses = u.l1i_misses;
    c.itlb_misses = u.itlb_misses;
    c.btb_misses = u.btb_misses;
    return c;
}

double
perKilo(uint64_t events, uint64_t instructions)
{
    return instructions == 0
               ? 0.0
               : 1000.0 * static_cast<double>(events)
                     / static_cast<double>(instructions);
}

} // namespace

void
mergeAttribution(HotspotReport* report, const uarch::CoreModel& model)
{
    if (report == nullptr || !model.attributionEnabled()) {
        return;
    }
    const std::vector<uarch::SiteUarch>& per_site = model.attributionPerSite();
    std::vector<SiteCounters> converted;
    converted.reserve(per_site.size());
    for (const uarch::SiteUarch& u : per_site) {
        converted.push_back(toSiteCounters(u));
    }
    report->mergeBySiteId(converted,
                          toSiteCounters(model.attributionUnattributed()));
}

void
emitPhaseCounters(SpanTracer* tracer, const uarch::CoreModel& model,
                  const std::string& label)
{
    const std::vector<uarch::PhaseSample>& samples = model.phaseSamples();
    if (tracer == nullptr || samples.empty()) {
        return;
    }
    const double freq_ghz = model.params().freq_ghz;
    // cycles -> simulated microseconds (cycles / (GHz * 1e9) * 1e6).
    const double us_per_cycle = 1.0 / (freq_ghz * 1e3);
    const int64_t tid = threadTid();
    tracer->setTrackName(kPhaseTrackPid, tid,
                         "uarch phase (sim time, thread "
                             + std::to_string(tid) + ")");

    uarch::PhaseSample prev; // zero: the first window starts at t=0.
    for (const uarch::PhaseSample& s : samples) {
        const uint64_t d_cycles = s.cycles - prev.cycles;
        const uint64_t d_instr = s.instructions - prev.instructions;
        if (d_cycles == 0 && d_instr == 0) {
            prev = s;
            continue;
        }
        // Counter steps plot from their timestamp onward, so each window
        // is stamped at its *start* to span the window in the viewer.
        const double ts_us = static_cast<double>(prev.cycles) * us_per_cycle;
        const uint64_t d_slots =
            (s.slots_retiring - prev.slots_retiring)
            + (s.slots_frontend - prev.slots_frontend)
            + (s.slots_bad_spec - prev.slots_bad_spec)
            + (s.slots_backend_memory - prev.slots_backend_memory)
            + (s.slots_backend_core - prev.slots_backend_core);
        const double slot_total =
            d_slots == 0 ? 1.0 : static_cast<double>(d_slots);

        Span topdown;
        topdown.category = "uarch";
        topdown.name = "topdown " + label;
        topdown.pid = kPhaseTrackPid;
        topdown.tid = tid;
        topdown.ts_us = ts_us;
        topdown.values = {
            {"retiring",
             (s.slots_retiring - prev.slots_retiring) / slot_total},
            {"frontend",
             (s.slots_frontend - prev.slots_frontend) / slot_total},
            {"bad_spec",
             (s.slots_bad_spec - prev.slots_bad_spec) / slot_total},
            {"backend_memory",
             (s.slots_backend_memory - prev.slots_backend_memory)
                 / slot_total},
            {"backend_core",
             (s.slots_backend_core - prev.slots_backend_core) / slot_total},
        };
        tracer->recordCounter(std::move(topdown));

        Span rates;
        rates.category = "uarch";
        rates.name = "rates " + label;
        rates.pid = kPhaseTrackPid;
        rates.tid = tid;
        rates.ts_us = ts_us;
        rates.values = {
            {"ipc", d_cycles == 0 ? 0.0
                                  : static_cast<double>(d_instr)
                                        / static_cast<double>(d_cycles)},
            {"branch_mpki",
             perKilo(s.branch_mispredicts - prev.branch_mispredicts,
                     d_instr)},
            {"l1d_mpki", perKilo(s.l1d_misses - prev.l1d_misses, d_instr)},
            {"l2_mpki", perKilo(s.l2_misses - prev.l2_misses, d_instr)},
            {"l3_mpki", perKilo(s.l3_misses - prev.l3_misses, d_instr)},
            {"l1i_mpki", perKilo(s.l1i_misses - prev.l1i_misses, d_instr)},
        };
        tracer->recordCounter(std::move(rates));
        prev = s;
    }
}

void
recordCoreSchedule(const uarch::ScheduleStats& schedule)
{
    MetricsRegistry& reg = metrics();
    reg.counter(schedule.pipelined
                    ? "vtrans_core_runs_total{schedule=\"pipelined\"}"
                    : "vtrans_core_runs_total{schedule=\"inline\"}",
                "Instrumented runs by core-model schedule")
        .inc();
    const char* help = "Host seconds of each core-model stage, busy or "
                       "waiting for its input";
    auto add = [&](const char* labels, double seconds) {
        reg.floatCounter(
               std::string("vtrans_core_stage_seconds_total") + labels, help)
            .add(seconds);
    };
    add("{stage=\"memory_branch\",state=\"busy\"}", schedule.memory_busy_s);
    add("{stage=\"memory_branch\",state=\"wait\"}", schedule.memory_wait_s);
    add("{stage=\"timing\",state=\"busy\"}", schedule.timing_busy_s);
    add("{stage=\"timing\",state=\"wait\"}", schedule.timing_wait_s);
    add("{stage=\"codec\",state=\"wait\"}", schedule.codec_wait_s);
}

} // namespace vtrans::obs
