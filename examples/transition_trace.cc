/**
 * @file
 * Transition trace: drives a VSV controller directly with a scripted
 * L2-miss scenario, records everything through a TraceSink, and
 * renders the recorded event stream as a textual timeline - the
 * paper's Figure 2 (high-to-low) and Figure 3 (low-to-high)
 * transitions, reconstructed from the same events the full simulator
 * exports to Perfetto (see OBSERVABILITY.md).
 *
 *   ./transition_trace [--trace-out=FILE]
 *
 * With --trace-out the scenario's Chrome trace-event JSON is written
 * to FILE, loadable in Perfetto / chrome://tracing.
 *
 * The scenario is self-checking: it must produce exactly one down and
 * one up transition, visible both in the controller's counters and in
 * the recorded mode-transition events; any mismatch exits nonzero.
 */

#include <bit>
#include <iomanip>
#include <iostream>
#include <string>

#include "common/config.hh"
#include "power/model.hh"
#include "trace/sink.hh"
#include "vsv/controller.hh"

using namespace vsv;

namespace
{

/** MonitorOutcome rendering (numeric protocol; see trace/sink.cc). */
constexpr const char *outcomeNames[] = {"idle", "watching", "fired",
                                        "expired"};

void
drive(VsvController &ctrl, Tick &now, int count, std::uint32_t issued)
{
    for (int i = 0; i < count; ++i) {
        if (ctrl.beginTick(now))
            ctrl.observeIssueRate(issued);
        ++now;
    }
}

/** Render one recorded event as a timeline line. */
void
render(const TraceSink &sink, const TraceEvent &ev)
{
    std::cout << std::setw(5) << ev.ts << "  ";
    switch (static_cast<TraceEventKind>(ev.kind)) {
      case TraceEventKind::ModeEnter:
        std::cout << "mode -> "
                  << sink.internedString(
                         static_cast<std::uint32_t>(ev.a));
        break;
      case TraceEventKind::FsmArm:
        std::cout << (ev.a == traceFsmDown ? "down" : "up")
                  << "-FSM armed";
        break;
      case TraceEventKind::FsmObserve: {
        const std::uint64_t outcome = ev.b & 0xff;
        std::cout << (ev.a == traceFsmDown ? "down" : "up")
                  << "-FSM observed issue=" << (ev.b >> 8) << " ("
                  << outcomeNames[outcome & 3] << ")";
        break;
      }
      case TraceEventKind::FsmDisarm:
        std::cout << (ev.a == traceFsmDown ? "down" : "up")
                  << "-FSM disarmed";
        break;
      case TraceEventKind::VddChange:
        std::cout << "VDD " << std::fixed << std::setprecision(3)
                  << std::bit_cast<double>(ev.a) << " V";
        break;
      case TraceEventKind::RampEnergy:
        std::cout << "ramp energy "
                  << std::bit_cast<double>(ev.a) / 1000.0
                  << " nJ cumulative";
        break;
      case TraceEventKind::ClockDivider:
        std::cout << "clock divider -> " << ev.a;
        break;
      default:
        std::cout << "event kind " << ev.kind;
        break;
    }
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    const std::string trace_out = config.getString("trace-out", "");
    config.rejectUnknown("transition_trace");

    VsvConfig vsv_config;
    vsv_config.enabled = true;
    vsv_config.down = {3, 10};
    vsv_config.up = {3, 10};

    PowerModel power;
    VsvController ctrl(vsv_config, power);

    TraceSink sink;
    power.setTraceSink(&sink);
    ctrl.setTraceSink(&sink);

    // The scripted scenario: steady high-power execution, a demand L2
    // miss that collapses the issue rate (Figure 2: down-FSM fires,
    // clock distribution, VDD ramp), a stretch at VDDL, then the miss
    // returns (Figure 3: Section 4.4's single-miss rule raises the
    // voltage immediately).
    Tick now = 0;
    drive(ctrl, now, 3, 6);
    ctrl.demandL2MissDetected(now, 1);
    drive(ctrl, now, 4, 0);   // down-FSM counts 3 zero-issue cycles
    drive(ctrl, now, 17, 0);  // clock distribution + 12-tick ramp
    drive(ctrl, now, 6, 0);   // low-power mode, half clock
    ctrl.demandL2MissReturned(now, 0);
    drive(ctrl, now, 16, 4);  // control dist + ramp back to VDDH
    drive(ctrl, now, 3, 6);

    std::cout << "tick   event (from the recorded trace)\n"
              << "---------------------------------------\n";
    sink.visit([&](const TraceEvent &ev) { render(sink, ev); });

    std::cout << "\ntransitions: " << ctrl.downTransitions()
              << " down, " << ctrl.upTransitions()
              << " up; ramp energy " << power.rampEnergyPj() / 1000.0
              << " nJ; " << sink.eventCount() << " events recorded\n";

    if (!trace_out.empty()) {
        sink.writeChromeJsonFile(trace_out, 0, now);
        std::cout << "wrote " << trace_out << '\n';
    }

    // Self-check: the scenario is one round trip, and the recorded
    // mode events must agree with the controller's counters.
    std::uint64_t down_events = 0;
    std::uint64_t up_events = 0;
    sink.visit([&](const TraceEvent &ev) {
        if (static_cast<TraceEventKind>(ev.kind) !=
            TraceEventKind::ModeEnter) {
            return;
        }
        const std::string &name =
            sink.internedString(static_cast<std::uint32_t>(ev.a));
        if (name == "downClockDist")
            ++down_events;
        else if (name == "upClockDist")
            ++up_events;
    });
    if (ctrl.downTransitions() != 1 || ctrl.upTransitions() != 1 ||
        down_events != 1 || up_events != 1) {
        std::cerr << "FAIL: expected exactly one down and one up "
                     "transition (counters "
                  << ctrl.downTransitions() << "/"
                  << ctrl.upTransitions() << ", traced " << down_events
                  << "/" << up_events << ")\n";
        return 1;
    }
    return 0;
}
