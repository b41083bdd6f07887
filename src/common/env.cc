#include "env.hh"

#include <charconv>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace atlb
{

namespace
{

/** from_chars over all of @p text, or nullopt. */
template <typename T, typename... Format>
std::optional<T>
parseWhole(std::string_view text, Format... format)
{
    if (text.empty())
        return std::nullopt;
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] =
        std::from_chars(text.data(), end, value, format...);
    if (ec != std::errc{} || stop != end)
        return std::nullopt;
    return value;
}

} // namespace

std::optional<std::uint64_t>
parseU64(std::string_view text, int base)
{
    return parseWhole<std::uint64_t>(text, base);
}

std::optional<double>
parseDouble(std::string_view text)
{
    return parseWhole<double>(text);
}

bool
envPresent(const std::string &name)
{
    return std::getenv(name.c_str()) != nullptr;
}

std::uint64_t
envU64(const std::string &name, std::uint64_t fallback)
{
    const char *v = std::getenv(name.c_str());
    if (!v)
        return fallback;
    const std::optional<std::uint64_t> value = parseU64(v);
    if (!value)
        ATLB_FATAL("{} must be an unsigned decimal integer, got '{}'", name,
                   v);
    return *value;
}

double
envDouble(const std::string &name, double fallback)
{
    const char *v = std::getenv(name.c_str());
    if (!v)
        return fallback;
    const std::optional<double> value = parseDouble(v);
    if (!value)
        ATLB_FATAL("{} must be a number, got '{}'", name, v);
    return *value;
}

std::string
envString(const std::string &name, const std::string &fallback)
{
    const char *v = std::getenv(name.c_str());
    return v ? std::string(v) : fallback;
}

unsigned
configuredThreadCount()
{
    if (envPresent("ANCHORTLB_THREADS")) {
        const std::uint64_t n = envU64("ANCHORTLB_THREADS", 0);
        if (n == 0)
            ATLB_FATAL("ANCHORTLB_THREADS must be >= 1");
        return static_cast<unsigned>(n);
    }
    return hardwareThreadCount();
}

unsigned
hardwareThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace atlb
