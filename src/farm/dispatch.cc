#include "farm/dispatch.h"

#include <algorithm>

#include "common/status.h"

namespace vtrans::farm {

std::string
toString(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        return "round_robin";
      case DispatchPolicy::Random:
        return "random";
      case DispatchPolicy::Smart:
        return "smart";
      case DispatchPolicy::SmartDeadline:
        return "smart_deadline";
    }
    return "?";
}

DispatchPolicy
dispatchPolicyFromName(const std::string& name)
{
    if (name == "round_robin") {
        return DispatchPolicy::RoundRobin;
    }
    if (name == "random") {
        return DispatchPolicy::Random;
    }
    if (name == "smart") {
        return DispatchPolicy::Smart;
    }
    if (name == "smart_deadline") {
        return DispatchPolicy::SmartDeadline;
    }
    VT_FATAL("unknown dispatch policy: ", name,
             " (round_robin, random, smart, smart_deadline)");
}

void
Predictor::setRelief(const std::vector<std::string>& config_names,
                     const std::vector<double>& relief)
{
    VT_ASSERT(config_names.size() == relief.size(),
              "relief calibration inputs disagree");
    for (size_t i = 0; i < config_names.size(); ++i) {
        relief_[config_names[i]] = relief[i];
    }
}

void
Predictor::learn(const std::string& task_key, double baseline_seconds,
                 const uarch::TopDown& profile)
{
    tasks_[task_key] = TaskProfile{baseline_seconds, profile};
}

const Predictor::TaskProfile&
Predictor::profileFor(const std::string& task_key) const
{
    auto it = tasks_.find(task_key);
    VT_ASSERT(it != tasks_.end(),
              "no baseline characterization for task: ", task_key);
    return it->second;
}

double
Predictor::fit(const std::string& task_key,
               const std::string& config_name) const
{
    auto relief = relief_.find(config_name);
    if (relief == relief_.end()) {
        return 0.0; // Baseline or uncalibrated config: no predicted gain.
    }
    const double f = sched::fitScore(profileFor(task_key).profile,
                                     config_name, relief->second);
    // A variant cannot remove more than (almost) all of the runtime.
    return std::clamp(f, 0.0, 0.9);
}

double
Predictor::predict(const std::string& task_key,
                   const std::string& config_name) const
{
    const TaskProfile& tp = profileFor(task_key);
    return tp.baseline_seconds * (1.0 - fit(task_key, config_name));
}

double
Predictor::baselineSeconds(const std::string& task_key) const
{
    return profileFor(task_key).baseline_seconds;
}

namespace {

/** Idle server with the highest predicted fit (ties: lowest id). */
int
bestFitServer(const Job& job, const Predictor& predictor,
              const std::vector<Server>& fleet,
              const std::vector<int>& idle)
{
    int best = idle.front();
    double best_fit = -1.0;
    for (int id : idle) {
        const double f = predictor.fit(job.key(), fleet[id].config);
        if (f > best_fit) {
            best_fit = f;
            best = id;
        }
    }
    return best;
}

/** Idle server with the smallest predicted time (ties: lowest id). */
int
fastestServer(const Job& job, const Predictor& predictor,
              const std::vector<Server>& fleet,
              const std::vector<int>& idle)
{
    int best = idle.front();
    double best_time = predictor.predict(job.key(), fleet[best].config);
    for (int id : idle) {
        const double t = predictor.predict(job.key(), fleet[id].config);
        if (t < best_time) {
            best_time = t;
            best = id;
        }
    }
    return best;
}

} // namespace

int
pickServerForJob(DispatchPolicy policy, const Job& job,
                 const Predictor& predictor,
                 const std::vector<Server>& fleet,
                 const std::vector<int>& idle, double now, Rng& rng,
                 size_t& rr_cursor)
{
    VT_ASSERT(!idle.empty(), "dispatch needs at least one idle server");
    switch (policy) {
      case DispatchPolicy::RoundRobin: {
        // Advance the cursor over fleet ids until it lands on an idle one.
        for (size_t step = 0; step < fleet.size(); ++step) {
            const int id = static_cast<int>(rr_cursor % fleet.size());
            rr_cursor = (rr_cursor + 1) % fleet.size();
            if (std::binary_search(idle.begin(), idle.end(), id)) {
                return id;
            }
        }
        return idle.front(); // Unreachable: idle is non-empty.
      }
      case DispatchPolicy::Random:
        return idle[rng.below(idle.size())];
      case DispatchPolicy::Smart:
        return bestFitServer(job, predictor, fleet, idle);
      case DispatchPolicy::SmartDeadline: {
        const int preferred = bestFitServer(job, predictor, fleet, idle);
        if (job.deadline <= 0.0) {
            return preferred;
        }
        const double finish =
            now + predictor.predict(job.key(), fleet[preferred].config);
        if (finish <= job.deadline) {
            return preferred;
        }
        // The fit choice misses the deadline: fall back to the fastest
        // predicted idle server if one is strictly faster.
        const int fastest = fastestServer(job, predictor, fleet, idle);
        if (predictor.predict(job.key(), fleet[fastest].config)
            < predictor.predict(job.key(), fleet[preferred].config)) {
            return fastest;
        }
        return preferred;
      }
    }
    return idle.front();
}

} // namespace vtrans::farm
