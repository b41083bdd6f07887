/**
 * @file
 * Client side of the sweep service: connect, one request per call.
 *
 * Wraps the unix-socket line protocol (wire.hh) behind a typed
 * request/response API for the `anchortlb submit|query|serve stop`
 * subcommands and the serve tests. Errors are returned, never fatal —
 * a missing or dying server is an expected condition for a client.
 */

#ifndef ANCHORTLB_SERVE_CLIENT_HH
#define ANCHORTLB_SERVE_CLIENT_HH

#include <string>

#include "serve/wire.hh"

namespace atlb
{

/** One connection to a SweepServer. */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to the server socket; false with @p error on failure. */
    bool connect(const std::string &socket_path, std::string *error);

    /**
     * Send @p request and decode the server's reply line into
     * @p response. False with @p error on transport or protocol
     * failure; a response with ok == false is returned as success
     * here (the request round-tripped — inspect response.error).
     */
    bool roundTrip(const SweepRequest &request, SweepResponse &response,
                   std::string *error);

    void disconnect();

    bool connected() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    LineBuffer buf_; //!< bytes past the last reply line
};

} // namespace atlb

#endif // ANCHORTLB_SERVE_CLIENT_HH
