/**
 * @file
 * Interval statistics: bins selected StatRegistry scalars into
 * fixed-tick epochs and records each epoch's per-tick rate as an
 * IntervalValue event, which the TraceSink exports as a Perfetto
 * counter track named `interval.<scalar>`.
 *
 * The sampler is driven by the simulation loop at exact epoch
 * boundaries (the loop caps its idle fast-forward horizon at
 * nextSampleAt(), so boundaries land on the same tick whether or not
 * fast-forward is on, and the sampled values are identical - the
 * fast path's stats contract, DESIGN.md 5d/5e). Sampling only reads
 * scalars; it never flushes or mutates simulation state, so enabling
 * --interval-stats cannot perturb a run's results.
 *
 * Besides the configured scalars there is one built-in series,
 * `interval.powerW`: the epoch's average power in watts, read through
 * a non-mutating energy probe so banked idle ticks are included
 * without changing the power model's flush boundaries.
 */

#ifndef VSV_TRACE_INTERVAL_HH
#define VSV_TRACE_INTERVAL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/sink.hh"

namespace vsv
{

class StatRegistry;

/** Epoch-boundary sampler feeding a TraceSink. */
class IntervalStatsSampler
{
  public:
    /**
     * Captures every series' baseline value immediately, so construct
     * at the first measured tick (after warmup).
     *
     * @param scalars registry scalar names to sample as per-tick
     *        deltas; unknown names are fatal
     * @param start   first measured tick (epoch 0 begins here)
     */
    IntervalStatsSampler(TraceSink &sink, const StatRegistry &registry,
                         Tick interval_ticks,
                         const std::vector<std::string> &scalars,
                         Tick start);

    /**
     * The sampler a traced `cores`-core run asks for, or nullptr when
     * `config` sets no epoch or masks the Interval category. It
     * samples each core's `cpu.committed` and `cpu.issued` (prefixed
     * `coreN.` when cores > 1), `mem.demandL2Misses`, then
     * config.intervalScalars, and installs `energy_probe`.
     */
    static std::unique_ptr<IntervalStatsSampler>
    forRun(TraceSink &sink, const StatRegistry &registry,
           const TraceConfig &config, std::uint32_t cores, Tick start,
           std::function<double()> energy_probe);

    /**
     * Install the cumulative-energy probe (pJ) for the interval.powerW
     * series and capture its baseline. The probe must not mutate
     * stats; see PowerModel::peekTotalEnergyPj().
     */
    void setEnergyProbe(std::function<double()> probe);

    /** The next epoch boundary (a fast-forward horizon cap). */
    Tick nextSampleAt() const { return nextAt; }

    /** Record the epoch ending at `now`; call when now==nextSampleAt(). */
    void sample(Tick now);

    /** Record the final (possibly partial) epoch at end of run. */
    void finish(Tick now);

  private:
    void emitEpoch(Tick now);

    TraceSink &sink;
    const StatRegistry &registry;
    const Tick interval;
    Tick epochStart;
    Tick nextAt;

    struct Series
    {
        std::string name;      ///< registry scalar name
        std::uint32_t id;      ///< interned trace-series name
        double last = 0.0;     ///< value at the last boundary
    };
    std::vector<Series> series;

    std::function<double()> energyProbe;
    std::uint32_t powerId = 0;
    double lastEnergy = 0.0;
};

} // namespace vsv

#endif // VSV_TRACE_INTERVAL_HH
