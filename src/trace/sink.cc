#include "sink.hh"

#include <array>
#include <bit>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "stats/stats.hh"

namespace vsv
{

namespace
{

constexpr struct
{
    TraceCategory cat;
    std::string_view name;
} categoryTable[] = {
    {TraceCategory::Mode, "mode"},
    {TraceCategory::Fsm, "fsm"},
    {TraceCategory::L2Miss, "l2miss"},
    {TraceCategory::Mshr, "mshr"},
    {TraceCategory::Power, "power"},
    {TraceCategory::Clock, "clock"},
    {TraceCategory::Core, "core"},
    {TraceCategory::Interval, "interval"},
    {TraceCategory::FastForward, "ff"},
};

/**
 * Mirrors MonitorOutcome (vsv/fsm.hh); the trace layer deliberately
 * does not include VSV headers, so the numeric protocol is fixed
 * here and asserted against the enum in controller.cc.
 */
constexpr std::string_view outcomeNames[] = {"idle", "watching",
                                             "fired", "expired"};

constexpr std::string_view fsmTrackNames[] = {"down-fsm", "up-fsm"};

} // namespace

TraceSink::TraceSink(std::uint32_t category_mask)
    : mask_(category_mask)
{
}

void
TraceSink::addSlab()
{
    slabs_.push_back(std::make_unique<TraceEvent[]>(slabEvents));
    cursor_ = slabs_.back().get();
    slabEnd_ = cursor_ + slabEvents;
}

std::uint32_t
TraceSink::internString(std::string_view s)
{
    for (std::uint32_t i = 0; i < strings_.size(); ++i) {
        if (strings_[i] == s)
            return i;
    }
    strings_.emplace_back(s);
    return static_cast<std::uint32_t>(strings_.size() - 1);
}

const std::string &
TraceSink::internedString(std::uint32_t index) const
{
    VSV_ASSERT(index < strings_.size(), "bad interned-string index");
    return strings_[index];
}

std::size_t
TraceSink::eventCount() const
{
    if (slabs_.empty())
        return 0;
    return (slabs_.size() - 1) * slabEvents +
           static_cast<std::size_t>(cursor_ -
                                    (slabEnd_ - slabEvents));
}

void
TraceSink::visit(const std::function<void(const TraceEvent &)> &fn) const
{
    for (std::size_t s = 0; s < slabs_.size(); ++s) {
        const TraceEvent *begin = slabs_[s].get();
        const TraceEvent *end =
            s + 1 == slabs_.size() ? cursor_ : begin + slabEvents;
        for (const TraceEvent *ev = begin; ev != end; ++ev)
            fn(*ev);
    }
}

std::uint16_t
TraceSink::categoryIndex(TraceCategory c)
{
    const auto bits = static_cast<std::uint32_t>(c);
    std::uint16_t index = 0;
    for (std::uint32_t v = bits; v > 1; v >>= 1)
        ++index;
    return index;
}

std::string_view
TraceSink::categoryName(TraceCategory c)
{
    for (const auto &entry : categoryTable) {
        if (entry.cat == c)
            return entry.name;
    }
    panic("bad trace category");
}

std::uint32_t
TraceSink::parseCategories(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return allTraceCategories;
    std::uint32_t mask = 0;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        bool found = false;
        for (const auto &entry : categoryTable) {
            if (item == entry.name) {
                mask |= static_cast<std::uint32_t>(entry.cat);
                found = true;
                break;
            }
        }
        if (!found) {
            fatal("unknown trace category '" + item +
                  "' (see --trace-categories in OBSERVABILITY.md)");
        }
    }
    return mask;
}

namespace
{

/** Incremental writer for one JSON array of event objects. */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream &os) : os(os) {}

    std::ostream &
    next()
    {
        if (!first)
            os << ",\n";
        first = false;
        return os;
    }

  private:
    std::ostream &os;
    bool first = true;
};

/** jsonEscape produces the escaped contents; wrap in quotes. */
std::string
quoted(std::string_view s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
commonFields(std::string_view name, char ph, Tick ts,
             std::string_view cat)
{
    std::string out = "{\"name\":";
    out += quoted(name);
    out += ",\"ph\":\"";
    out += ph;
    out += "\",\"pid\":1,\"ts\":";
    out += std::to_string(ts);
    out += ",\"cat\":";
    out += quoted(cat);
    return out;
}

void
emitCounter(EventWriter &w, std::string_view name, Tick ts,
            std::string_view cat, double value)
{
    w.next() << commonFields(name, 'C', ts, cat)
             << ",\"args\":{\"value\":" << jsonNumber(value) << "}}";
}

void
emitInstant(EventWriter &w, std::string_view name, Tick ts,
            std::string_view cat, int tid, std::string_view args)
{
    w.next() << commonFields(name, 'i', ts, cat) << ",\"tid\":" << tid
             << ",\"s\":\"t\",\"args\":{" << args << "}}";
}

void
emitSlice(EventWriter &w, std::string_view name, Tick ts, Tick dur,
          std::string_view cat, int tid, std::string_view args)
{
    w.next() << commonFields(name, 'X', ts, cat) << ",\"tid\":" << tid
             << ",\"dur\":" << dur << ",\"args\":{" << args << "}}";
}

void
emitThreadName(EventWriter &w, int tid, std::string_view name)
{
    w.next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
             << "\"tid\":" << tid << ",\"args\":{\"name\":"
             << quoted(name) << "}}";
}

// Track (tid) layout; counters carry no tid (Perfetto keys them by
// name) and metadata names the slice/instant tracks.
constexpr int tidMode = 1;
constexpr int tidFsm = 2;
constexpr int tidL2Miss = 3;
constexpr int tidCore = 4;
constexpr int tidFastForward = 5;

} // namespace

void
TraceSink::writeChromeJson(std::ostream &os, Tick origin,
                           Tick end_tick) const
{
    VSV_ASSERT(end_tick >= origin, "trace end before origin");

    // Multi-core runs tag events with their core id; a pre-scan
    // decides the track layout. Single-core traces keep the original
    // five-track schema byte for byte.
    std::uint16_t max_core = 0;
    visit([&](const TraceEvent &ev) {
        if (ev.core > max_core)
            max_core = ev.core;
    });
    const std::uint32_t cores = max_core + 1u;
    const bool multi = max_core > 0;

    // Per-core tids: core c occupies the block [c*8+1, c*8+5].
    const auto tid = [&](std::uint16_t core, int base) {
        return static_cast<int>(core) * 8 + base;
    };
    // Counter names gain a "coreN." prefix in multi-core traces
    // (Perfetto keys counter tracks by name, not tid).
    const auto counterName = [&](std::uint16_t core,
                                 std::string_view name) {
        if (!multi)
            return std::string(name);
        return "core" + std::to_string(core) + "." +
               std::string(name);
    };

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    EventWriter w(os);

    w.next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
             << "\"args\":{\"name\":\"vsv-sim\"}}";
    for (std::uint32_t c = 0; c < cores; ++c) {
        const std::string p =
            multi ? "core" + std::to_string(c) + " " : "";
        const auto core16 = static_cast<std::uint16_t>(c);
        emitThreadName(w, tid(core16, tidMode), p + "vsv mode");
        emitThreadName(w, tid(core16, tidFsm), p + "issue-rate FSMs");
        emitThreadName(w, tid(core16, tidL2Miss), p + "l2 miss");
        emitThreadName(w, tid(core16, tidCore), p + "core");
        emitThreadName(w, tid(core16, tidFastForward),
                       p + "fast-forward");
    }

    // Per-core slice state threaded through the event scan.
    struct OpenMode
    {
        Tick ts;
        std::uint32_t nameIndex;
    };
    std::vector<std::optional<OpenMode>> openMode(cores);
    struct OpenFsm
    {
        Tick ts;
        std::uint64_t observations = 0;
    };
    std::vector<std::array<std::optional<OpenFsm>, 2>> openFsm(cores);

    const Tick end = end_tick - origin;

    auto closeFsm = [&](std::uint16_t core, std::uint64_t which,
                        Tick ts, std::string_view outcome) {
        const OpenFsm &open = *openFsm[core][which];
        std::string args = "\"observations\":" +
                           std::to_string(open.observations) +
                           ",\"outcome\":" + quoted(outcome);
        emitSlice(w, std::string(fsmTrackNames[which]) + " armed",
                  open.ts, ts - open.ts, "fsm", tid(core, tidFsm),
                  args);
        openFsm[core][which].reset();
    };

    visit([&](const TraceEvent &ev) {
        VSV_ASSERT(ev.ts >= origin, "trace event before origin");
        const Tick ts = ev.ts - origin;
        const std::uint16_t core = ev.core;
        const std::string_view cat =
            categoryName(static_cast<TraceCategory>(1u << ev.cat));
        switch (static_cast<TraceEventKind>(ev.kind)) {
          case TraceEventKind::ModeEnter:
            if (openMode[core]) {
                emitSlice(w, internedString(openMode[core]->nameIndex),
                          openMode[core]->ts, ts - openMode[core]->ts,
                          cat, tid(core, tidMode), "");
            }
            openMode[core] = OpenMode{
                ts, static_cast<std::uint32_t>(ev.a)};
            break;

          case TraceEventKind::FsmArm:
            if (openFsm[core][ev.a])
                closeFsm(core, ev.a, ts, "rearmed");
            openFsm[core][ev.a] = OpenFsm{ts, 0};
            break;

          case TraceEventKind::FsmObserve: {
            if (!openFsm[core][ev.a])
                openFsm[core][ev.a] = OpenFsm{ts, 0};
            ++openFsm[core][ev.a]->observations;
            const std::uint8_t outcome = ev.b & 0xff;
            if (outcome >= 2 && outcome <= 3) {
                const std::string_view name = outcomeNames[outcome];
                closeFsm(core, ev.a, ts, name);
                emitInstant(w,
                            std::string(fsmTrackNames[ev.a]) + " " +
                                std::string(name),
                            ts, cat, tid(core, tidFsm),
                            "\"issued\":" +
                                std::to_string(ev.b >> 8));
            }
            break;
          }

          case TraceEventKind::FsmDisarm:
            if (openFsm[core][ev.a])
                closeFsm(core, ev.a, ts, "disarmed");
            break;

          case TraceEventKind::MissDetect:
            emitInstant(w, "missDetect", ts, cat,
                        tid(core, tidL2Miss),
                        "\"outstanding\":" + std::to_string(ev.a));
            emitCounter(w, counterName(core, "demandOutstanding"),
                        ts, cat, static_cast<double>(ev.a));
            break;

          case TraceEventKind::MissReturn:
            emitInstant(w, "missReturn", ts, cat,
                        tid(core, tidL2Miss),
                        "\"outstanding\":" + std::to_string(ev.a));
            emitCounter(w, counterName(core, "demandOutstanding"),
                        ts, cat, static_cast<double>(ev.a));
            break;

          case TraceEventKind::MshrLevel:
            // The L2 MSHR file is shared; one counter for all cores.
            emitCounter(w, "l2MshrInUse", ts, cat,
                        static_cast<double>(ev.a));
            break;

          case TraceEventKind::VddChange:
            emitCounter(w, counterName(core, "pipelineVdd"), ts, cat,
                        std::bit_cast<double>(ev.a));
            break;

          case TraceEventKind::RampEnergy:
            emitCounter(w, counterName(core, "rampEnergyPj"), ts, cat,
                        std::bit_cast<double>(ev.a));
            break;

          case TraceEventKind::ClockDivider:
            emitCounter(w, counterName(core, "clockDivider"), ts, cat,
                        static_cast<double>(ev.a));
            break;

          case TraceEventKind::Mispredict:
            emitInstant(w, "mispredictRecovery", ts, cat,
                        tid(core, tidCore),
                        "\"seq\":" + std::to_string(ev.a));
            break;

          case TraceEventKind::MemRetry:
            emitInstant(w, "memRetry", ts, cat, tid(core, tidCore),
                        "\"seq\":" + std::to_string(ev.a));
            break;

          case TraceEventKind::IdleSpan:
            emitSlice(w, "idle", ts, ev.a, cat,
                      tid(core, tidFastForward),
                      "\"ticks\":" + std::to_string(ev.a) +
                          ",\"edges\":" + std::to_string(ev.b));
            break;

          case TraceEventKind::IntervalValue:
            emitCounter(w,
                        internedString(
                            static_cast<std::uint32_t>(ev.a)),
                        ts, cat, std::bit_cast<double>(ev.b));
            break;

          default:
            panic("bad trace event kind");
        }
    });

    // Close anything still open at the end of the run.
    for (std::uint32_t c = 0; c < cores; ++c) {
        const auto core16 = static_cast<std::uint16_t>(c);
        if (openMode[c]) {
            emitSlice(w, internedString(openMode[c]->nameIndex),
                      openMode[c]->ts, end - openMode[c]->ts, "mode",
                      tid(core16, tidMode), "");
        }
        for (std::uint64_t which = 0; which < 2; ++which) {
            if (openFsm[c][which])
                closeFsm(core16, which, end, "open");
        }
    }

    os << "\n]}\n";
}

void
TraceSink::writeChromeJsonFile(const std::string &path, Tick origin,
                               Tick end_tick) const
{
    std::ofstream os(path, std::ios::out | std::ios::trunc);
    if (!os)
        fatal("cannot open trace output file: " + path);
    writeChromeJson(os, origin, end_tick);
    os.flush();
    if (!os)
        fatal("error writing trace output file: " + path);
}

} // namespace vsv
