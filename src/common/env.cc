#include "env.hh"

#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace atlb
{

bool
envPresent(const std::string &name)
{
    return std::getenv(name.c_str()) != nullptr;
}

std::uint64_t
envU64(const std::string &name, std::uint64_t fallback)
{
    const char *v = std::getenv(name.c_str());
    return v ? std::strtoull(v, nullptr, 10) : fallback;
}

double
envDouble(const std::string &name, double fallback)
{
    const char *v = std::getenv(name.c_str());
    return v ? std::strtod(v, nullptr) : fallback;
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
