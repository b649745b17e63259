/**
 * @file
 * net::AdminEndpoint implementation; see admin_endpoint.hh.
 */

#include "net/admin_endpoint.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <sstream>

#include "telemetry/exposition.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::net
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr const char *kPlainText = "text/plain; charset=utf-8";
constexpr const char *kPrometheusText =
    "text/plain; version=0.0.4; charset=utf-8";

/** Write all of `bytes` to the non-blocking socket `fd` before
 *  `deadline`; false when the peer broke or time ran out. */
bool
sendAll(int fd, const std::string &bytes, Clock::time_point deadline)
{
    std::size_t off = 0;
    while (off < bytes.size() && Clock::now() < deadline) {
        const ssize_t wrote = ::send(fd, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
        if (wrote > 0)
            off += static_cast<std::size_t>(wrote);
        else if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            waitFor(fd, POLLOUT, 20);
        else if (wrote == 0 || errno != EINTR)
            return false;
    }
    return off == bytes.size();
}

/** Append what the non-blocking socket `fd` sends to `out` until the
 *  peer closes, `deadline` passes or `done(out)`; false when a read
 *  fails. */
template <typename Done>
bool
recvUntil(int fd, std::string &out, Clock::time_point deadline,
          Done done)
{
    char buf[1024];
    while (!done(out) && Clock::now() < deadline) {
        const ssize_t got = ::read(fd, buf, sizeof(buf));
        if (got > 0)
            out.append(buf, static_cast<std::size_t>(got));
        else if (got == 0)
            break;
        else if (errno == EAGAIN || errno == EWOULDBLOCK)
            waitFor(fd, POLLIN, 20);
        else if (errno != EINTR)
            return false;
    }
    return true;
}

} // namespace

AdminEndpoint::AdminEndpoint(std::vector<AdminRoute> routes,
                             const std::atomic<bool> &draining)
    : routes(std::move(routes)), draining(draining)
{
}

AdminEndpoint::~AdminEndpoint()
{
    stop();
}

bool
AdminEndpoint::listen(const std::string &host, std::uint16_t port)
{
    listener = listenTcp(host, port, &boundPort);
    return listener.valid();
}

void
AdminEndpoint::start(std::uint64_t tick_ms)
{
    if (!listener.valid())
        return;
    stopping.store(false);
    thread = std::thread([this, tick_ms] { loop(tick_ms); });
}

void
AdminEndpoint::stop()
{
    stopping.store(true);
    if (thread.joinable())
        thread.join();
    listener.reset();
}

void
AdminEndpoint::loop(std::uint64_t tick_ms)
{
    while (!stopping.load()) {
        if (!waitFor(listener.get(), POLLIN, tick_ms))
            continue;
        Fd conn(::accept4(listener.get(), nullptr, nullptr,
                          SOCK_NONBLOCK));
        if (conn.valid())
            serve(conn);
    }
}

std::string
AdminEndpoint::respond(const std::string &request) const
{
    int status = 400;
    std::string body = "bad request\n";
    std::string contentType = kPlainText;
    if (request.rfind("GET ", 0) == 0) {
        const std::size_t end = request.find_first_of(" \r\n", 4);
        if (end != std::string::npos && end > 4) {
            const std::string path = request.substr(4, end - 4);
            if (path == "/healthz") {
                const bool drained =
                    draining.load(std::memory_order_relaxed);
                status = drained ? 503 : 200;
                body = drained ? "draining\n" : "ok\n";
            } else if (path == "/metrics") {
                status = 200;
                contentType = kPrometheusText;
                std::ostringstream os;
                if (telemetry::MetricRegistry *registry =
                        telemetry::attachedRegistry())
                    telemetry::writePrometheus(os, registry->snapshot());
                else
                    os << "# telemetry registry not attached\n";
                body = os.str();
            } else {
                status = 404;
                body = "not found\n";
                for (const AdminRoute &route : routes) {
                    if (route.path != path)
                        continue;
                    status = 200;
                    contentType = route.contentType;
                    body = route.body();
                    break;
                }
            }
        }
    }

    const char *reason = status == 200  ? "OK"
                         : status == 404 ? "Not Found"
                         : status == 503 ? "Service Unavailable"
                                         : "Bad Request";
    std::ostringstream os;
    os << "HTTP/1.0 " << status << ' ' << reason << "\r\n"
       << "Content-Type: " << contentType << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    return os.str();
}

void
AdminEndpoint::serve(Fd &conn) const
{
    // Bounded request read: one request at a time is the whole
    // concurrency model, so a slow client must not hold the thread.
    std::string request;
    if (recvUntil(conn.get(), request,
                  Clock::now() + std::chrono::milliseconds(250),
                  [](const std::string &r) {
                      return r.find('\n') != std::string::npos ||
                             r.size() >= 4096;
                  }))
        sendAll(conn.get(), respond(request),
                Clock::now() + std::chrono::milliseconds(500));
}

std::string
httpRequest(const std::string &host, std::uint16_t port,
            const std::string &request, std::uint64_t timeout_ms)
{
    Fd fd = connectTcp(host, port);
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    // The server closes after every response: read to the close.
    std::string response;
    if (!fd.valid() || !sendAll(fd.get(), request, deadline) ||
        !recvUntil(fd.get(), response, deadline,
                   [](const std::string &) { return false; }))
        return "";
    return response;
}

} // namespace hotpath::net
