/**
 * @file
 * Error and status reporting helpers, following the gem5 convention:
 * panic() for internal invariant violations (simulator bugs), fatal() for
 * unrecoverable user errors (bad configuration / arguments), warn() and
 * inform() for status messages that do not stop the run.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace copra {

/**
 * Abort with a message. Use for conditions that indicate a bug in copra
 * itself, never for user errors.
 */
[[noreturn]] inline void
panic(const char *msg)
{
    std::fprintf(stderr, "panic: %s\n", msg);
    std::abort();
}

[[noreturn]] inline void
panic(const std::string &msg)
{
    panic(msg.c_str());
}

/**
 * Exit with an error code. Use for conditions caused by the user (bad
 * configuration, invalid arguments), not for internal bugs.
 */
[[noreturn]] inline void
fatal(const char *msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg);
    std::exit(1);
}

[[noreturn]] inline void
fatal(const std::string &msg)
{
    fatal(msg.c_str());
}

/** Non-fatal warning about questionable but survivable conditions. */
inline void
warn(const char *msg)
{
    std::fprintf(stderr, "warn: %s\n", msg);
}

inline void
warn(const std::string &msg)
{
    warn(msg.c_str());
}

/** Informative status message. */
inline void
inform(const char *msg)
{
    std::fprintf(stderr, "info: %s\n", msg);
}

inline void
inform(const std::string &msg)
{
    inform(msg.c_str());
}

/**
 * panic() unless a condition holds.
 *
 * The const char* overload matters: assertion checks sit on the hot
 * prediction path (e.g. SelectiveTable::step checks its pattern
 * bound on every branch), and a std::string parameter would
 * heap-allocate the message at every call even when the condition is
 * false — a per-branch allocation the
 * `copra_check --hot-gates` steady-state probe flags. Literal messages
 * must never touch an allocator; only call sites that actually format
 * pay for a std::string.
 */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond)
        panic(msg);
}

/** fatal() unless a condition holds. */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

} // namespace copra

