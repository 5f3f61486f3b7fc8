#ifndef VTRANS_TESTS_SUPPORT_SERIAL_STUDIES_H_
#define VTRANS_TESTS_SUPPORT_SERIAL_STUDIES_H_

/**
 * @file
 * The serial Figure 3/6/7 studies: every grid point run one after the
 * other on the calling thread, with no worker pool and no warmup. They
 * are the oracles the parallel runners (core/parallel.h) must match bit
 * for bit, in point order: tests/test_parallel_sweep.cc compares
 * fingerprints against them, and tests/test_core.cc checks the studies'
 * paper-shaped outputs through them. Test-only; no shipped library
 * links them.
 */

#include <vector>

#include "core/studies.h"

namespace vtrans::core {

/** Figures 3/4/5: sweep crf x refs at the medium preset. */
std::vector<SweepPoint> crfRefsSweep(const std::vector<int>& crf_values,
                                     const std::vector<int>& refs_values,
                                     const StudyOptions& options);

/** Figure 6: all ten presets at crf 23, refs 3. */
std::vector<PresetResult> presetStudy(const StudyOptions& options);

/** Figure 7: all vbench videos at medium/23/3, Table I order. */
std::vector<VideoResult> videoStudy(const StudyOptions& options);

} // namespace vtrans::core

#endif // VTRANS_TESTS_SUPPORT_SERIAL_STUDIES_H_
