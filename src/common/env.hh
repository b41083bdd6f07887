/**
 * @file
 * Typed readers for the ANCHORTLB_* environment knobs.
 *
 * Every tunable the binaries accept from the environment flows through
 * these helpers so parsing and validation live in one place (SimOptions
 * reads its knobs here).
 */

#ifndef ANCHORTLB_COMMON_ENV_HH
#define ANCHORTLB_COMMON_ENV_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace atlb
{

/**
 * All of @p text as an unsigned integer in @p base, or nullopt when it
 * is empty, overflows or holds any other character (a sign, a suffix,
 * whitespace). The one number parser for the knobs: the environment
 * readers below and the CLI's options.
 */
std::optional<std::uint64_t> parseU64(std::string_view text, int base = 10);

/** All of @p text as a double, or nullopt, under parseU64's rules. */
std::optional<double> parseDouble(std::string_view text);

/** True when @p name is set (to anything, including empty). */
bool envPresent(const std::string &name);

/**
 * Unsigned decimal value of @p name, or @p fallback when unset. Fatal,
 * naming the knob, when the value is not entirely such a number.
 */
std::uint64_t envU64(const std::string &name, std::uint64_t fallback);

/** Double value of @p name, or @p fallback when unset; fatal as envU64. */
double envDouble(const std::string &name, double fallback);

/** String value of @p name, or @p fallback when unset. */
std::string envString(const std::string &name,
                      const std::string &fallback);

/**
 * Number of worker threads tools should use: the ANCHORTLB_THREADS
 * environment variable when set (must be >= 1), else the hardware
 * concurrency (minimum 1).
 */
unsigned configuredThreadCount();

/** Hardware concurrency as reported by the OS (minimum 1). */
unsigned hardwareThreadCount();

} // namespace atlb

#endif // ANCHORTLB_COMMON_ENV_HH
