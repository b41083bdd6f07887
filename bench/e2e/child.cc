/**
 * @file
 * Child processes of bench_e2e: the anchortlb CLI for untimed input
 * preparation, and the `anchortlb serve` instance under test.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "e2e.hh"
#include "serve/client.hh"

extern char **environ;

namespace atlb::e2e
{

namespace
{

/** Our environment, minus the knobs that could change server results. */
std::vector<std::string>
childEnvironment(unsigned threads)
{
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e) {
        const std::string entry(*e);
        if (entry.rfind("ANCHORTLB_", 0) == 0 &&
            entry.rfind("ANCHORTLB_SIMD=", 0) != 0)
            continue;
        env.push_back(entry);
    }
    if (threads)
        env.push_back("ANCHORTLB_THREADS=" + std::to_string(threads));
    return env;
}

std::vector<char *>
cStrings(std::vector<std::string> &strings)
{
    std::vector<char *> out;
    out.reserve(strings.size() + 1);
    for (std::string &s : strings)
        out.push_back(s.data());
    out.push_back(nullptr);
    return out;
}

/**
 * CPU seconds the live threads of @p pid have used, to the nanosecond
 * (schedstat's first field). /proc/<pid>/stat counts whole clock ticks,
 * too coarse for a server start of a few milliseconds.
 */
double
taskCpuSeconds(pid_t pid)
{
    std::error_code ec;
    double ns = 0.0;
    for (const auto &task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid) + "/task", ec)) {
        std::ifstream in(task.path() / "schedstat");
        double run_ns = 0.0;
        if (in >> run_ns)
            ns += run_ns;
    }
    return ns / 1e9;
}

} // namespace

double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

Child::~Child()
{
    kill();
}

bool
Child::start(const std::vector<std::string> &argv, unsigned threads,
             bool pipe_stdout, std::string *error)
{
    std::vector<std::string> args = argv;
    std::vector<std::string> env = childEnvironment(threads);
    const std::vector<char *> c_args = cStrings(args);
    const std::vector<char *> c_env = cStrings(env);

    int fds[2] = {-1, -1};
    if (pipe_stdout && ::pipe2(fds, O_CLOEXEC) != 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        *error = std::string("fork: ") + std::strerror(errno);
        if (pipe_stdout) {
            ::close(fds[0]);
            ::close(fds[1]);
        }
        return false;
    }
    if (pid == 0) {
        // Only async-signal-safe calls from here to execve. A killed
        // benchmark must never leave a server behind.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        const int out = pipe_stdout ? fds[1]
                                    : ::open("/dev/null", O_WRONLY);
        if (out < 0 || ::dup2(out, STDOUT_FILENO) < 0)
            ::_exit(127);
        ::execve(c_args[0], c_args.data(), c_env.data());
        ::_exit(127);
    }
    pid_ = pid;
    if (pipe_stdout) {
        ::close(fds[1]);
        out_fd_ = fds[0];
    }
    return true;
}

bool
Child::readLine(std::string &line, double timeout_s)
{
    const auto start = Clock::now();
    for (;;) {
        const std::size_t newline = buf_.find('\n');
        if (newline != std::string::npos) {
            line = buf_.substr(0, newline);
            buf_.erase(0, newline + 1);
            return true;
        }
        if (out_fd_ < 0)
            return false;
        const double left = timeout_s - secondsSince(start);
        if (left <= 0.0)
            return false;
        pollfd pfd{out_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
        if (ready < 0 && errno != EINTR)
            return false;
        if (ready <= 0)
            continue;
        char chunk[4096];
        const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
Child::wait()
{
    if (pid_ < 0)
        return false;
    // A child that has not exited within the deadline is killed; its
    // stdout is drained meanwhile so a full pipe cannot block it.
    constexpr double deadline_s = 120.0;
    const auto start = Clock::now();
    int status = 0;
    bool exited = false;
    for (;;) {
        const pid_t got = ::waitpid(pid_, &status, WNOHANG);
        if (got == pid_) {
            exited = true;
            break;
        }
        if (got < 0 && errno != EINTR)
            break;
        if (secondsSince(start) > deadline_s) {
            ::kill(pid_, SIGKILL);
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
            break;
        }
        if (out_fd_ >= 0) {
            pollfd pfd{out_fd_, POLLIN, 0};
            char chunk[4096];
            if (::poll(&pfd, 1, 10) > 0 &&
                ::read(out_fd_, chunk, sizeof(chunk)) <= 0) {
                ::close(out_fd_);
                out_fd_ = -1;
            }
        } else {
            ::usleep(2000);
        }
    }
    pid_ = -1;
    if (out_fd_ >= 0) {
        ::close(out_fd_);
        out_fd_ = -1;
    }
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void
Child::kill()
{
    if (pid_ < 0)
        return;
    ::kill(pid_, SIGKILL);
    wait();
}

bool
runTool(const std::string &anchortlb, const std::vector<std::string> &args)
{
    std::vector<std::string> argv{anchortlb};
    argv.insert(argv.end(), args.begin(), args.end());
    Child child;
    std::string error;
    return child.start(argv, 0, false, &error) && child.wait();
}

bool
Server::start(const std::string &anchortlb, const std::string &store,
              unsigned threads, double &setup_cpu_s, std::string *error,
              const std::string &socket)
{
    socket_ = socket;
    if (!child_.start({anchortlb, "serve", "--socket=" + socket_,
                       "--store=" + store},
                      threads, true, error))
        return false;
    std::string line;
    while (child_.readLine(line, 60.0)) {
        if (line.find("listening") != std::string::npos) {
            setup_cpu_s = taskCpuSeconds(child_.pid());
            running_ = true;
            return true;
        }
    }
    child_.kill();
    *error = "anchortlb serve exited before listening";
    return false;
}

double
Server::peakRssMb() const
{
    std::ifstream status("/proc/" + std::to_string(child_.pid()) +
                         "/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(1 << 16, '\n');
    }
    return 0.0;
}

double
Server::cpuSeconds() const
{
    std::ifstream in("/proc/" + std::to_string(child_.pid()) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto paren = text.rfind(')');
    if (paren == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(paren + 1));
    std::string field;
    double ticks = 0.0;
    // utime and stime are fields 14 and 15; the state (field 3) is the
    // first after the command name.
    for (int i = 3; i <= 15 && fields >> field; ++i)
        if (i >= 14)
            ticks += std::strtod(field.c_str(), nullptr);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::vector<std::pair<std::string, std::uint64_t>>
Server::stats()
{
    ServeClient client;
    SweepRequest request;
    request.op = WireOp::Stats;
    SweepResponse response;
    std::string error;
    if (!client.connect(socket_, &error) ||
        !client.roundTrip(request, response, &error))
        return {};
    return response.counters;
}

bool
Server::stop()
{
    if (!running_)
        return false;
    running_ = false;
    ServeClient client;
    SweepRequest request;
    request.op = WireOp::Shutdown;
    SweepResponse response;
    std::string error;
    if (!client.connect(socket_, &error) ||
        !client.roundTrip(request, response, &error)) {
        child_.kill();
        return false;
    }
    client.disconnect();
    return child_.wait();
}

} // namespace atlb::e2e
