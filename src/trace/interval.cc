#include "interval.hh"

#include <bit>

#include "common/logging.hh"
#include "stats/stats.hh"

namespace vsv
{

IntervalStatsSampler::IntervalStatsSampler(
    TraceSink &sink, const StatRegistry &registry, Tick interval_ticks,
    const std::vector<std::string> &scalars, Tick start)
    : sink(sink),
      registry(registry),
      interval(interval_ticks),
      epochStart(start),
      nextAt(start + interval_ticks)
{
    VSV_ASSERT(interval > 0, "interval-stats epoch must be positive");
    for (const std::string &name : scalars) {
        if (!registry.hasScalar(name)) {
            fatal("--interval-stats scalar '" + name +
                  "' is not a registered statistic");
        }
        Series s;
        s.name = name;
        s.id = sink.internString("interval." + name);
        s.last = registry.scalarValue(name);
        series.push_back(std::move(s));
    }
    powerId = sink.internString("interval.powerW");
}

std::unique_ptr<IntervalStatsSampler>
IntervalStatsSampler::forRun(TraceSink &sink, const StatRegistry &registry,
                             const TraceConfig &config, std::uint32_t cores,
                             Tick start, std::function<double()> energy_probe)
{
    if (config.intervalTicks == 0 || !sink.wants(TraceCategory::Interval))
        return nullptr;
    std::vector<std::string> scalars;
    for (std::uint32_t c = 0; c < cores; ++c) {
        const std::string prefix =
            cores == 1 ? "" : "core" + std::to_string(c) + ".";
        scalars.push_back(prefix + "cpu.committed");
        scalars.push_back(prefix + "cpu.issued");
    }
    scalars.push_back("mem.demandL2Misses");
    scalars.insert(scalars.end(), config.intervalScalars.begin(),
                   config.intervalScalars.end());
    auto sampler = std::make_unique<IntervalStatsSampler>(
        sink, registry, config.intervalTicks, scalars, start);
    sampler->setEnergyProbe(std::move(energy_probe));
    return sampler;
}

void
IntervalStatsSampler::setEnergyProbe(std::function<double()> probe)
{
    energyProbe = std::move(probe);
    lastEnergy = energyProbe ? energyProbe() : 0.0;
}

void
IntervalStatsSampler::emitEpoch(Tick now)
{
    VSV_ASSERT(now > epochStart, "empty interval-stats epoch");
    const double span = static_cast<double>(now - epochStart);

    for (Series &s : series) {
        const double value = registry.scalarValue(s.name);
        const double rate = (value - s.last) / span;
        sink.record(TraceCategory::Interval,
                    TraceEventKind::IntervalValue, epochStart, s.id,
                    std::bit_cast<std::uint64_t>(rate));
        s.last = value;
    }

    if (energyProbe) {
        const double energy = energyProbe();
        // pJ per tick (= per ns) is mW; report watts.
        const double watts = (energy - lastEnergy) / span * 1e-3;
        sink.record(TraceCategory::Interval,
                    TraceEventKind::IntervalValue, epochStart, powerId,
                    std::bit_cast<std::uint64_t>(watts));
        lastEnergy = energy;
    }

    epochStart = now;
}

void
IntervalStatsSampler::sample(Tick now)
{
    VSV_ASSERT(now >= nextAt, "interval sample before the boundary");
    emitEpoch(now);
    nextAt = now + interval;
}

void
IntervalStatsSampler::finish(Tick now)
{
    if (now > epochStart)
        emitEpoch(now);
}

} // namespace vsv
