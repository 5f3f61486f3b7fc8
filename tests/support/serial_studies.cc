#include "tests/support/serial_studies.h"

#include "codec/params.h"
#include "common/status.h"
#include "video/vbench.h"

namespace vtrans::core {

namespace {

void
progress(bool verbose, const std::string& message)
{
    if (verbose) {
        VT_INFORM(message);
    }
}

} // namespace

std::vector<SweepPoint>
crfRefsSweep(const std::vector<int>& crf_values,
             const std::vector<int>& refs_values,
             const StudyOptions& options)
{
    std::vector<SweepPoint> points;
    points.reserve(crf_values.size() * refs_values.size());
    for (int crf : crf_values) {
        for (int refs : refs_values) {
            progress(options.verbose,
                     "sweep crf=" + std::to_string(crf)
                         + " refs=" + std::to_string(refs));
            SweepPoint point;
            point.crf = crf;
            point.refs = refs;
            point.run = runInstrumented(sweepPointConfig(options, crf, refs));
            points.push_back(std::move(point));
        }
    }
    return points;
}

std::vector<PresetResult>
presetStudy(const StudyOptions& options)
{
    std::vector<PresetResult> results;
    for (const auto& preset : codec::presetNames()) {
        progress(options.verbose, "preset " + preset);
        PresetResult result;
        result.preset = preset;
        result.run = runInstrumented(presetPointConfig(options, preset));
        results.push_back(std::move(result));
    }
    return results;
}

std::vector<VideoResult>
videoStudy(const StudyOptions& options)
{
    std::vector<VideoResult> results;
    for (const auto& spec : video::vbenchCorpus()) {
        progress(options.verbose, "video " + spec.name);
        VideoResult result;
        result.video = spec.name;
        result.resolution_class = spec.resolution_class;
        result.entropy = spec.entropy;
        result.run = runInstrumented(videoPointConfig(options, spec.name));
        results.push_back(std::move(result));
    }
    return results;
}

} // namespace vtrans::core
