#include "provenance.h"

#include <fstream>
#include <thread>

#include "codec/strategies/strategies.h"
#include "trace/probe.h"

namespace perfbench {

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

/** The sanitizers this binary was built with: the -fsanitize= value of
 *  its compiler flags, else what the compiler's own macros report. */
std::string
sanitizer()
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
    const std::string option = "-fsanitize=";
    const size_t at = flags.find(option);
    if (at != std::string::npos) {
        const size_t from = at + option.size();
        return flags.substr(from, flags.find(' ', from) - from);
    }
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "";
#endif
}

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

} // namespace

Provenance
Provenance::current()
{
    Provenance p;
    p.git_rev = PERFBENCH_GIT_REV;
    p.compiler = PERFBENCH_COMPILER;
    p.cxx_flags = PERFBENCH_CXX_FLAGS;
    p.build_type = PERFBENCH_BUILD_TYPE;
    p.sanitize = sanitizer();
    p.cpu_model = cpuModel();
    p.nproc = std::thread::hardware_concurrency();
    p.kernel_isa = vtrans::codec::kernelIsa();
    p.probe_batch = vtrans::trace::defaultBatchCapacity();
    return p;
}

std::string
Provenance::toJson() const
{
    return "{\"git_rev\": " + quoted(git_rev) + ", \"compiler\": "
           + quoted(compiler) + ", \"cxx_flags\": " + quoted(cxx_flags)
           + ", \"build_type\": " + quoted(build_type) + ", \"sanitize\": "
           + quoted(sanitize) + ", \"cpu_model\": " + quoted(cpu_model)
           + ", \"nproc\": " + std::to_string(nproc) + ", \"kernel_isa\": "
           + quoted(kernel_isa) + ", \"probe_batch\": "
           + std::to_string(probe_batch) + ", \"workload\": "
           + quoted(workload) + ", \"seed\": " + std::to_string(seed)
           + ", \"traced\": " + (traced ? "true" : "false") + "}";
}

std::string
buildRefusal(const std::string& build_type, const std::string& sanitize,
             bool ndebug)
{
    if (build_type != "Release") {
        return "build type is '" + build_type + "', not Release";
    }
    if (!sanitize.empty()) {
        return "built with -fsanitize=" + sanitize;
    }
    if (!ndebug) {
        return "assertions are compiled in (NDEBUG unset)";
    }
    return "";
}

std::string
thisBuildRefusal()
{
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    return buildRefusal(PERFBENCH_BUILD_TYPE, sanitizer(), ndebug);
}

} // namespace perfbench
