/**
 * @file
 * The submission-instruction and synchronization model (§3.3):
 *
 *  - MOVDIR64B: posted 64-byte store to a DWQ portal. The core is
 *    busy only for the store itself; the descriptor lands in the WQ
 *    one flight later. The client must track DWQ occupancy.
 *  - ENQCMD: non-posted submission to an SWQ. The core stalls for
 *    the full round trip and receives an accept/retry status, which
 *    is what makes one SWQ submitter equivalent to a batch-of-1
 *    stream (Fig. 9).
 *  - UMONITOR/UMWAIT: park the core on the completion record in an
 *    optimized wait state; the waited ticks are accounted separately
 *    from busy work (Fig. 11).
 *  - Spin polling: check the status byte every pollInterval.
 */

#ifndef DSASIM_DRIVER_SUBMITTER_HH
#define DSASIM_DRIVER_SUBMITTER_HH

#include <algorithm>
#include <cstdint>
#include <optional>

#include "cpu/core.hh"
#include "dsa/device.hh"
#include "sim/task.hh"
#include "sim/traffic.hh"

namespace dsasim
{

class Submitter
{
  public:
    Submitter(Core &submitting_core, const DsaParams &p)
        : core_(submitting_core), params(p)
    {}

    Core &core() { return core_; }

    /**
     * MOVDIR64B to a dedicated WQ. Returns (resumes) as soon as the
     * core retires the store; the descriptor arrives at the portal
     * asynchronously. The client must track DWQ occupancy: a store
     * past capacity is dropped by the portal and surfaces as a
     * WqOverflow completion (see DsaDevice::submit), never as a
     * silent hang.
     */
    CoTask
    movdir64b(DsaDevice &dev, WorkQueue &wq, WorkDescriptor d)
    {
        Simulation &sim = core_.simulation();
        core_.chargeBusy(params.submitMovdirCost, "submit");
        co_await sim.delay(params.submitMovdirCost);
        DsaDevice *devp = &dev;
        WorkQueue *wqp = &wq;
        sim.scheduleIn(params.submitFlight, [devp, wqp, d] {
            devp->submit(*wqp, d);
        });
    }

    /**
     * ENQCMD to a shared WQ. The core blocks for the non-posted
     * round trip; @p status reports the full portal outcome
     * (Accepted / transient Retry / Rejected-with-cause).
     */
    CoTask
    enqcmdStatus(DsaDevice &dev, WorkQueue &wq, WorkDescriptor d,
                 DsaDevice::SubmitStatus &status)
    {
        Simulation &sim = core_.simulation();
        core_.chargeBusy(params.enqcmdRoundTrip, "submit");
        co_await sim.delay(params.submitFlight);
        status = dev.submit(wq, d);
        co_await sim.delay(params.enqcmdRoundTrip -
                           params.submitFlight);
    }

    /**
     * How enqcmd() absorbs Retry. An unset @p maxRetries resubmits
     * immediately until the SWQ accepts: the paper's measured
     * contention behavior (Fig. 9), whose calibration depends on that
     * timing, so it schedules no pause. A set bound allows at most
     * that many resubmissions (0 = none), each after a pause that
     * starts at @p backoffBase and doubles up to @p backoffCap. The
     * pause is accounted as backoff (not busy) time: the core could
     * run other work.
     */
    struct RetryPolicy
    {
        std::optional<unsigned> maxRetries;
        Tick backoffBase = 0;
        Tick backoffCap = 0;
        /**
         * Optional counter-based jitter: retry @p a pauses
         * pause * (1 - jitterFraction * jitter->uniformAt(jitterBase
         * + a)), a pure function of the draw index, so the spread
         * replays identically for any worker-thread count.
         */
        const CounterRng *jitter = nullptr;
        std::uint64_t jitterBase = 0;
        double jitterFraction = 0;
    };

    /**
     * ENQCMD under @p policy. @p status is the last portal outcome:
     * Accepted, Rejected (disabled device, injected drop; the record
     * already carries the cause, and retrying can never succeed) or
     * Retry (the bound ran out with the SWQ still full; the caller
     * decides: fall back to CPU, fail the request). Each
     * resubmission bumps @p retries, if given, as it happens.
     */
    CoTask
    enqcmd(DsaDevice &dev, WorkQueue &wq, WorkDescriptor d,
           RetryPolicy policy, DsaDevice::SubmitStatus &status,
           std::uint64_t *retries = nullptr)
    {
        Simulation &sim = core_.simulation();
        Tick pause = policy.backoffBase;
        for (unsigned attempt = 0;; ++attempt) {
            co_await enqcmdStatus(dev, wq, d, status);
            if (status != DsaDevice::SubmitStatus::Retry)
                co_return;
            if (policy.maxRetries && attempt >= *policy.maxRetries)
                co_return;
            if (retries)
                ++*retries;
            if (!policy.maxRetries)
                continue;
            Tick jittered = pause;
            if (policy.jitter) {
                const double u =
                    policy.jitter->uniformAt(policy.jitterBase + attempt);
                jittered -= static_cast<Tick>(policy.jitterFraction * u *
                                              static_cast<double>(pause));
            }
            core_.cycleAccount().charge("enqcmd-backoff", jittered);
            co_await sim.delay(std::max<Tick>(1, jittered));
            pause = std::min(pause * 2, policy.backoffCap);
        }
    }

    /**
     * UMONITOR + UMWAIT on the completion record. The waited time is
     * charged to the core's umwait bucket (a low-power state whose
     * cycles other SMT work or the power budget can reclaim).
     */
    CoTask
    umwait(CompletionRecord &cr)
    {
        Simulation &sim = core_.simulation();
        Tick t0 = sim.now();
        if (!cr.isDone())
            co_await cr.done.wait();
        core_.chargeUmwait(sim.now() - t0);
        const Tick wake = core_.cpuParams().umwaitWake;
        core_.chargeBusy(wake, "wake");
        co_await sim.delay(wake);
    }

    /**
     * Interrupt-driven wait (§4.4's alternative to UMWAIT): the
     * core is released entirely; when the completion interrupt
     * fires, the handler + context switch cost is charged before
     * control returns. Pair with descflags::requestInterrupt so the
     * device actually raises one.
     */
    CoTask
    waitInterrupt(CompletionRecord &cr)
    {
        Simulation &sim = core_.simulation();
        Tick t0 = sim.now();
        if (!cr.isDone())
            co_await cr.done.wait();
        core_.cycleAccount().charge("idle-other-work",
                                    sim.now() - t0);
        const Tick handler = interruptHandlerCost;
        core_.chargeBusy(handler, "irq-handler");
        co_await sim.delay(handler);
    }

    /** Interrupt handler + context-switch cost on the waker core. */
    static constexpr Tick interruptHandlerCost = fromUs(1.2);

    /**
     * Spin-poll the completion record's status byte. Timing is
     * equivalent to checking every pollInterval (the completion is
     * detected at the next poll boundary) without simulating each
     * check as its own event.
     */
    CoTask
    poll(CompletionRecord &cr)
    {
        Simulation &sim = core_.simulation();
        const Tick interval = core_.cpuParams().pollInterval;
        Tick t0 = sim.now();
        if (!cr.isDone())
            co_await cr.done.wait();
        Tick waited = sim.now() - t0;
        Tick detect = (waited + interval - 1) / interval * interval +
                      interval - waited;
        core_.chargeSpin(waited + detect);
        co_await sim.delay(detect);
    }

  private:
    Core &core_;
    DsaParams params;
};

} // namespace dsasim

#endif // DSASIM_DRIVER_SUBMITTER_HH
