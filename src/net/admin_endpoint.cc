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

constexpr const char *kPlainText = "text/plain; charset=utf-8";
constexpr const char *kPrometheusText =
    "text/plain; version=0.0.4; charset=utf-8";

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
        pollfd pfd{listener.get(), POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(tick_ms)) <= 0)
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
    using Clock = std::chrono::steady_clock;
    // Bounded request read: one request at a time is the whole
    // concurrency model, so a slow client must not hold the thread.
    std::string request;
    char buf[1024];
    const auto readDeadline =
        Clock::now() + std::chrono::milliseconds(250);
    while (request.find('\n') == std::string::npos &&
           request.size() < 4096 && Clock::now() < readDeadline) {
        pollfd pfd{conn.get(), POLLIN, 0};
        if (::poll(&pfd, 1, 50) <= 0)
            continue;
        const ssize_t got = ::read(conn.get(), buf, sizeof(buf));
        if (got > 0) {
            request.append(buf, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0)
            break;
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK)
            continue;
        return;
    }

    const std::string response = respond(request);
    std::size_t off = 0;
    const auto writeDeadline =
        Clock::now() + std::chrono::milliseconds(500);
    while (off < response.size() && Clock::now() < writeDeadline) {
        const ssize_t wrote = ::send(
            conn.get(), response.data() + off, response.size() - off,
            MSG_NOSIGNAL);
        if (wrote > 0) {
            off += static_cast<std::size_t>(wrote);
            continue;
        }
        if (wrote < 0 &&
            (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd pfd{conn.get(), POLLOUT, 0};
            ::poll(&pfd, 1, 50);
            continue;
        }
        if (wrote < 0 && errno == EINTR)
            continue;
        break;
    }
}

} // namespace hotpath::net
