#include "client.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace atlb
{

ServeClient::~ServeClient()
{
    disconnect();
}

void
ServeClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
}

bool
ServeClient::connect(const std::string &socket_path, std::string *error)
{
    const auto fail = [this, error](const std::string &msg) {
        if (error)
            *error = msg + " (" + std::strerror(errno) + ")";
        disconnect();
        return false;
    };

    disconnect();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        if (error) {
            *error = "socket path '" + socket_path +
                     "' is too long for AF_UNIX";
        }
        return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);

    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return fail("cannot create socket");
    if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return fail("cannot connect to '" + socket_path + "'");
    return true;
}

bool
ServeClient::roundTrip(const SweepRequest &request,
                       SweepResponse &response, std::string *error)
{
    const auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    if (fd_ < 0)
        return fail("not connected");

    const std::string line = encodeRequest(request) + "\n";
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(fd_, line.data() + sent,
                                 line.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return fail(std::string("send failed (") +
                        std::strerror(errno) + ")");
        }
        sent += static_cast<std::size_t>(n);
    }

    std::string reply;
    for (;;) {
        if (buf_.next(reply))
            return decodeResponse(reply, response, error);
        char chunk[LineBuffer::readBytes];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return fail(std::string("recv failed (") +
                        std::strerror(errno) + ")");
        }
        if (n == 0)
            return fail("server closed the connection");
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace atlb
