/**
 * @file
 * The admin (introspection) HTTP plane shared by net::Server and
 * cluster::Router.
 *
 * One thread accepts and answers one plain HTTP GET at a time:
 * the plane serves a curl or an engine_top poll every few hundred
 * milliseconds, not traffic. Every endpoint serves /metrics
 * (Prometheus text of the attached telemetry registry) and /healthz
 * (200 "ok", or 503 "draining" once the owner drains); the owner
 * adds its own routes (the server's /stats, the router's /stats and
 * /topology) through a route table.
 *
 * Each request is bounded so a slow, oversized or malformed client
 * cannot wedge the thread: at most 4,096 request bytes are read
 * within 250 ms, and the response is written within 500 ms. A request
 * that is not a GET of a path is answered 400, an unknown path 404.
 * Every response carries Content-Type, Content-Length and
 * `Connection: close`.
 *
 * The plane keeps serving while its owner drains - that is when
 * /healthz turning 503 matters most - and exits on stop().
 */

#ifndef HOTPATH_NET_ADMIN_ENDPOINT_HH
#define HOTPATH_NET_ADMIN_ENDPOINT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hh"

namespace hotpath::net
{

/** One owner-specific admin route: an exact path answered 200. */
struct AdminRoute
{
    /** Request path, matched exactly (e.g. "/stats"). */
    std::string path;

    /** Content-Type header of the response. */
    std::string contentType;

    /** Builds the response body; runs on the admin thread. */
    std::function<std::string()> body;
};

/** The admin HTTP listener and its thread; see the file comment. */
class AdminEndpoint
{
  public:
    /**
     * An endpoint for `routes`; nothing listens until listen().
     *
     * @param routes   Owner routes, served besides /metrics and
     *                 /healthz.
     * @param draining The owner's drain flag, reported by /healthz;
     *                 it must outlive the endpoint.
     */
    AdminEndpoint(std::vector<AdminRoute> routes,
                  const std::atomic<bool> &draining);

    /** Stops and joins the thread. */
    ~AdminEndpoint();

    AdminEndpoint(const AdminEndpoint &) = delete;
    AdminEndpoint &operator=(const AdminEndpoint &) = delete;

    /**
     * Bind the listener to `host:port` (port 0 binds an ephemeral
     * port; read it back with port()). Returns false when the bind
     * fails, with errno left as the failing call set it.
     */
    bool listen(const std::string &host, std::uint16_t port);

    /** Serve on a thread of its own, polling for connections every
     *  `tick_ms` milliseconds. A no-op unless listen() succeeded. */
    void start(std::uint64_t tick_ms);

    /** Stop and join the thread, then close the listener
     *  (idempotent). */
    void stop();

    /** The bound port (0 until listen() succeeds). */
    std::uint16_t port() const { return boundPort; }

    /** The complete HTTP response (status line, headers and body) to
     *  one raw request; the thread writes exactly this back. */
    std::string respond(const std::string &request) const;

  private:
    /** Accept and serve connections until stop(). */
    void loop(std::uint64_t tick_ms);

    /** Read one request from `conn` and write its response. */
    void serve(Fd &conn) const;

    std::vector<AdminRoute> routes;
    const std::atomic<bool> &draining;
    Fd listener;
    std::uint16_t boundPort = 0;
    std::atomic<bool> stopping{false};
    std::thread thread;
};

/**
 * The admin plane's client: connect to `host:port`, write `request`
 * (e.g. "GET /stats HTTP/1.0\r\n\r\n") and read to the server's
 * close, all within `timeout_ms`. Returns the raw response read by
 * then; "" when the connect, the write or a read fails.
 */
std::string httpRequest(const std::string &host, std::uint16_t port,
                        const std::string &request,
                        std::uint64_t timeout_ms);

} // namespace hotpath::net

#endif // HOTPATH_NET_ADMIN_ENDPOINT_HH
