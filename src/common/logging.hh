/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal simulator invariant was violated (a bug);
 *            aborts so the failure is loud in tests and debuggers.
 * fatal()  - the user asked for something impossible (bad config);
 *            exits with status 1.
 * warn()   - something is approximated; simulation continues.
 * inform() - purely informational status output.
 */

#ifndef VSV_COMMON_LOGGING_HH
#define VSV_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vsv
{

/** Internal: print a tagged message to stderr. */
void logMessage(std::string_view tag, const std::string &msg);

/** Abort on a broken simulator invariant. */
[[noreturn]] void panic(const std::string &msg);

/** Exit(1) on an unusable user configuration. */
[[noreturn]] void fatal(const std::string &msg);

/** What fatal() throws inside a ScopedThrowingFatal region. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * While an instance is alive on the current thread, fatal() throws
 * FatalError instead of calling std::exit(1). The sweep runner's
 * worker threads use this so a bad configuration inside one run
 * becomes a structured per-run error record instead of tearing down
 * the whole sweep. Nests; panic() still aborts (an invariant
 * violation is a bug, not a recoverable run failure).
 */
class ScopedThrowingFatal
{
  public:
    ScopedThrowingFatal();
    ~ScopedThrowingFatal();

    ScopedThrowingFatal(const ScopedThrowingFatal &) = delete;
    ScopedThrowingFatal &operator=(const ScopedThrowingFatal &) = delete;
};

/** True while a ScopedThrowingFatal is alive on this thread. */
bool fatalThrows();

/** Non-fatal warning. */
void warn(const std::string &msg);

/** Informational message. */
void inform(const std::string &msg);

/**
 * Assert a simulator invariant; panics with location info on failure.
 * Kept active in release builds: the simulator is cheap relative to
 * the cost of silently wrong results.
 */
#define VSV_ASSERT(cond, msg)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::vsv::panic(std::string(__FILE__) + ":" +                     \
                         std::to_string(__LINE__) + ": " + (msg));         \
        }                                                                  \
    } while (0)

} // namespace vsv

#endif // VSV_COMMON_LOGGING_HH
