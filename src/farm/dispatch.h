#ifndef VTRANS_FARM_DISPATCH_H_
#define VTRANS_FARM_DISPATCH_H_

/**
 * @file
 * Online dispatch: which idle server gets the next job.
 *
 * The paper's §III-D2 smart scheduler solves a one-shot assignment from
 * profile-predicted fit scores. The farm generalizes it to continuous
 * operation: at every dispatch opportunity the policy sees the idle
 * subset of the fleet and the job at hand, and decides from *predicted*
 * times only — a real dispatcher cannot observe a job's actual runtime
 * before running it. Predictions come from the `Predictor`: per-task
 * baseline profiles (the characterization step) combined with per-config
 * relief coefficients calibrated from a reference workload, exactly the
 * machinery of `sched::fitScore`/`sched::calibrateRelief`.
 */

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "farm/job.h"
#include "farm/server.h"
#include "sched/scheduler.h"
#include "uarch/core.h"

namespace vtrans::farm {

/** Server-selection policies for online dispatch. */
enum class DispatchPolicy : uint8_t {
    RoundRobin,    ///< Next idle server in rotation.
    Random,        ///< Uniform over the idle subset (seeded).
    Smart,         ///< Highest predicted fit among idle servers.
    SmartDeadline, ///< Smart, but prefers a faster-predicted idle server
                   ///< when the fit choice would miss the job's deadline.
};

/** Human-readable policy name ("round_robin", "random", ...). */
std::string toString(DispatchPolicy policy);
/** Parses a policy name; fatal error on an unknown name. */
DispatchPolicy dispatchPolicyFromName(const std::string& name);

/**
 * Calibrated per-(task, config) transcode-time prediction.
 *
 * `learn()` records a task signature's baseline characterization (runtime
 * and Top-down profile on the baseline config); `setRelief()` installs
 * the per-config relief coefficients calibrated from a reference
 * workload. `predict()` then projects the baseline runtime through the
 * fit model: a config that relieves fraction f of its target stall
 * category is predicted to run the task in baseline * (1 - f).
 */
class Predictor
{
  public:
    /** Installs calibrated relief coefficients, one per config name. */
    void setRelief(const std::vector<std::string>& config_names,
                   const std::vector<double>& relief);

    /** Records a task signature's baseline characterization. */
    void learn(const std::string& task_key, double baseline_seconds,
               const uarch::TopDown& profile);

    /**
     * Predicted fractional speedup of `config_name` over baseline for
     * this task (0 for the baseline config or an unknown config).
     */
    double fit(const std::string& task_key,
               const std::string& config_name) const;

    /** Predicted transcode seconds of the task on the config. */
    double predict(const std::string& task_key,
                   const std::string& config_name) const;

    /** The task's measured baseline seconds (fatal if unknown). */
    double baselineSeconds(const std::string& task_key) const;

  private:
    struct TaskProfile
    {
        double baseline_seconds = 0.0;
        uarch::TopDown profile;
    };

    const TaskProfile& profileFor(const std::string& task_key) const;

    std::map<std::string, TaskProfile> tasks_;
    std::map<std::string, double> relief_;
};

/**
 * Picks a server for `job` from the idle subset (`idle` holds fleet ids;
 * must be non-empty and sorted ascending). Deterministic given the rng
 * state and round-robin cursor, which the caller owns and threads through
 * successive calls.
 */
int pickServerForJob(DispatchPolicy policy, const Job& job,
                     const Predictor& predictor,
                     const std::vector<Server>& fleet,
                     const std::vector<int>& idle, double now, Rng& rng,
                     size_t& rr_cursor);

} // namespace vtrans::farm

#endif // VTRANS_FARM_DISPATCH_H_
