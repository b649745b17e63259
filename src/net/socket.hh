/**
 * @file
 * Thin RAII and helper layer over POSIX TCP sockets.
 *
 * Everything the serving layer needs from the OS lives here: an
 * owning file descriptor, non-blocking mode, Nagle control, and
 * listen/connect constructors. Keeping the raw syscalls in one file
 * keeps server.cc and client.cc about frames and backpressure, not
 * about errno.
 */

#ifndef HOTPATH_NET_SOCKET_HH
#define HOTPATH_NET_SOCKET_HH

#include <cstdint>
#include <string>

namespace hotpath
{

/** The TCP serving layer: server, client library, socket helpers. */
namespace net
{

/** Move-only owning file descriptor (closes on destruction). */
class Fd
{
  public:
    /** An empty (invalid) descriptor. */
    Fd() = default;

    /** Take ownership of `fd` (-1 = none). */
    explicit Fd(int fd) : fd_(fd) {}

    ~Fd() { reset(); }

    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    /** Move ownership from `other`, leaving it empty. */
    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

    /** Move assignment; closes any currently owned descriptor. */
    Fd &
    operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    /** The raw descriptor (-1 when empty). */
    int get() const { return fd_; }

    /** True when a descriptor is owned. */
    bool valid() const { return fd_ >= 0; }

    /** Close the owned descriptor (if any) and become empty. */
    void reset();

    /** Release ownership without closing; returns the descriptor. */
    int release();

  private:
    int fd_ = -1;
};

/** Put `fd` into non-blocking mode; returns false on failure. */
bool setNonBlocking(int fd);

/** Wait at most `timeout_ms` for `events` (POLLIN, POLLOUT) on
 *  `fd`; false on timeout or a poll error. */
bool waitFor(int fd, short events, std::uint64_t timeout_ms);

/** Disable Nagle's algorithm (TCP_NODELAY); returns false on
 *  failure. Frames are latency-sensitive and self-contained, so
 *  coalescing them only adds tail latency. */
bool setNoDelay(int fd);

/**
 * Create a non-blocking IPv4 TCP listener bound to `host:port`
 * (port 0 = ephemeral). On success `bound_port` (if non-null)
 * receives the actual port. Returns an empty Fd on failure.
 */
Fd listenTcp(const std::string &host, std::uint16_t port,
             std::uint16_t *bound_port, int backlog = 128);

/**
 * Connect to `host:port` (one attempt, blocking connect) and return
 * the socket in non-blocking mode with TCP_NODELAY set. Returns an
 * empty Fd on failure. Retry policy belongs to the caller
 * (net::Client implements exponential backoff on top).
 */
Fd connectTcp(const std::string &host, std::uint16_t port);

} // namespace net
} // namespace hotpath

#endif // HOTPATH_NET_SOCKET_HH
