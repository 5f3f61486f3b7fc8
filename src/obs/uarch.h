#ifndef VTRANS_OBS_UARCH_H_
#define VTRANS_OBS_UARCH_H_

/**
 * @file
 * The bridge between the core timing model's per-site µarch attribution
 * (uarch::CoreModel with CoreParams::attribute_sites) and the obs
 * reporting layer. A run asks for attribution and phase samples on its
 * own CoreParams (`attribute_sites`, `phase_window`); this file has the
 * merge that folds a finished model's SiteUarch tallies into the
 * HotspotReport, the phase time-series exporter that renders
 * PhaseSamples as Chrome trace-event counter tracks ("ph":"C") next to
 * the job-lifecycle spans, and the metrics of how each run's model was
 * scheduled.
 */

#include <cstdint>
#include <string>

#include "obs/hotspots.h"
#include "obs/spans.h"
#include "uarch/core.h"

namespace vtrans::obs {

/** Merges a finished model's per-site attribution into `report`, keyed
 *  by registry site name (thread-safe through the report's lock). The
 *  model's per-site `branches` tally is intentionally dropped: the
 *  instruction profiler merged alongside counts the identical value,
 *  and double-merging would break the exactness contract. */
void mergeAttribution(HotspotReport* report, const uarch::CoreModel& model);

/** The trace process id phase counter tracks are grouped under (clear
 *  of the farm's simulated-time and the sweep's wall-time pids). */
inline constexpr int64_t kPhaseTrackPid = 9;

/** Emits the model's phase time-series as Chrome counter events on
 *  `tracer`, timestamped in simulated microseconds: per window, a
 *  "topdown <label>" event with the five slot-class shares (stacked)
 *  and a "rates <label>" event with IPC and the MPKIs. No-op when the
 *  model has no samples or `tracer` is null. */
void emitPhaseCounters(SpanTracer* tracer, const uarch::CoreModel& model,
                       const std::string& label);

/** Records how a finished run's core model was scheduled in metrics():
 *  one `vtrans_core_runs_total{schedule="pipelined"|"inline"}` tick, and
 *  each stage's busy and wait seconds in
 *  `vtrans_core_stage_seconds_total{stage=…,state="busy"|"wait"}`
 *  (stage `memory_branch`, `timing`, or `codec` for the emitting
 *  thread's waits). The stage with the most busy time bounds a
 *  pipelined run. */
void recordCoreSchedule(const uarch::ScheduleStats& schedule);

} // namespace vtrans::obs

#endif // VTRANS_OBS_UARCH_H_
