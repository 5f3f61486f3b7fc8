#ifndef VTRANS_TESTS_SUPPORT_REFERENCE_CORE_H_
#define VTRANS_TESTS_SUPPORT_REFERENCE_CORE_H_

/**
 * @file
 * The instruction-stepped reference oracle of the core model: the event
 * handlers uarch::CoreModel ran before the event-driven fast-forward
 * (DESIGN.md §13), kept verbatim and pointed at the state the model's
 * memory/branch and timing stages own. Dispatch steps one retired
 * instruction at a time, the windows drain eagerly on every cycle the
 * clock reaches, and every fetch line walks the full cache path.
 *
 * Test-only: the differential suite (tests/test_uarch.cc) and
 * microbench_probe's --min-model-speedup gate run the same probe stream
 * through CoreModel and this oracle and require bit-identical CoreStats,
 * per-site attribution and phase samples. It runs every event on the
 * emitting thread and never starts stage threads. No shipped library
 * links it.
 */

#include "uarch/core.h"

namespace vtrans::uarch {

/** A CoreModel whose event handlers are the stepped reference path. */
class ReferenceCoreModel : public CoreModel
{
  public:
    using CoreModel::CoreModel;

    void onBlock(const trace::CodeSite& site) override;
    void onBranch(const trace::CodeSite& site, bool taken) override;
    void onLoad(uint64_t addr, uint32_t bytes) override;
    void onStore(uint64_t addr, uint32_t bytes) override;

    /** Replays the batch through the per-event entry points above. */
    void onBatch(const trace::ProbeEvent* events, size_t count) override;

  private:
    using StallCause = TimingStage::StallCause;

    /** Dispatch one instruction at a time, draining on every rollover. */
    void referenceDispatch(uint32_t count);
    /** Frontend stall that also drains the windows. */
    void referenceResolveFrontend();
};

} // namespace vtrans::uarch

#endif // VTRANS_TESTS_SUPPORT_REFERENCE_CORE_H_
