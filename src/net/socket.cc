#include "net/socket.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace hotpath::net
{

void
Fd::reset()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

int
Fd::release()
{
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool
waitFor(int fd, short events, std::uint64_t timeout_ms)
{
    pollfd pfd{fd, events, 0};
    return ::poll(&pfd, 1, static_cast<int>(timeout_ms)) > 0;
}

bool
setNoDelay(int fd)
{
    const int one = 1;
    return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                        sizeof(one)) == 0;
}

namespace
{

bool
fillAddr(const std::string &host, std::uint16_t port,
         sockaddr_in &addr)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

} // namespace

Fd
listenTcp(const std::string &host, std::uint16_t port,
          std::uint16_t *bound_port, int backlog)
{
    sockaddr_in addr;
    if (!fillAddr(host, port, addr))
        return Fd();

    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
    if (!fd.valid())
        return Fd();
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return Fd();
    if (::listen(fd.get(), backlog) != 0)
        return Fd();

    if (bound_port != nullptr) {
        sockaddr_in actual;
        socklen_t len = sizeof(actual);
        if (::getsockname(fd.get(),
                          reinterpret_cast<sockaddr *>(&actual),
                          &len) != 0)
            return Fd();
        *bound_port = ntohs(actual.sin_port);
    }
    return fd;
}

Fd
connectTcp(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr;
    if (!fillAddr(host, port, addr))
        return Fd();

    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return Fd();
    if (::connect(fd.get(),
                  reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return Fd();
    if (!setNonBlocking(fd.get()))
        return Fd();
    setNoDelay(fd.get());
    return fd;
}

} // namespace hotpath::net
