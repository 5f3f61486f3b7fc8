#ifndef PERFBENCH_PROVENANCE_H_
#define PERFBENCH_PROVENANCE_H_

/**
 * @file
 * Which build, machine and inputs produced a result, stamped into every
 * file the benchmark writes; and the guard that refuses host-time
 * measurement from a build whose timings would mislead.
 */

#include <cstdint>
#include <string>

namespace perfbench {

struct Provenance
{
    std::string git_rev;
    std::string compiler;
    std::string cxx_flags;
    std::string build_type;
    std::string sanitize;   ///< Empty = no sanitizer.
    std::string cpu_model;
    unsigned nproc = 0;
    std::string kernel_isa; ///< codec::kernelIsa() of this process.
    uint32_t probe_batch = 0;
    std::string workload;
    uint64_t seed = 0;
    bool traced = false;

    /** Fills everything but the workload fields from this process. */
    static Provenance current();

    /** A JSON object. */
    std::string toJson() const;
};

/**
 * Why host times from this build must not be reported, or empty if they
 * may: only an optimized Release build without sanitizers and with
 * assertions compiled out measures the code users run.
 */
std::string buildRefusal(const std::string& build_type,
                         const std::string& sanitize, bool ndebug);

/** buildRefusal() for the build this binary came from. */
std::string thisBuildRefusal();

} // namespace perfbench

#endif // PERFBENCH_PROVENANCE_H_
