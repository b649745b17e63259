/**
 * @file
 * net::FramedConn implementation; see framed_conn.hh.
 */

#include "net/framed_conn.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace hotpath::net
{

IoStatus
FramedConn::read(std::size_t chunk_bytes, std::size_t &got)
{
    // The scratch is per thread, not per connection: a connection
    // keeps only the bytes it received.
    thread_local std::vector<std::uint8_t> chunk;
    if (chunk.size() < chunk_bytes)
        chunk.resize(chunk_bytes);
    got = 0;
    for (;;) {
        const ssize_t n = ::read(sock.get(), chunk.data(), chunk_bytes);
        if (n > 0) {
            got = static_cast<std::size_t>(n);
            in.insert(in.end(), chunk.data(), chunk.data() + got);
            return IoStatus::Ok;
        }
        if (n == 0) {
            inputDone = true;
            return IoStatus::Eof;
        }
        if (errno != EINTR)
            return errno == EAGAIN || errno == EWOULDBLOCK
                       ? IoStatus::WouldBlock
                       : IoStatus::Failed;
    }
}

ScanResult
FramedConn::scan(FrameFn on_frame)
{
    ScanResult result;
    wire::FrameHeader header;
    std::size_t end = 0;
    // No complete frame yet (the common short read): keep
    // accumulating without sealing a shared buffer.
    if (wire::peekFrameHeader(in.data(), in.size(), 0, header, end) !=
        wire::DecodeStatus::Truncated) {
        const auto buffer =
            std::make_shared<const std::vector<std::uint8_t>>(
                std::move(in));
        const std::uint8_t *data = buffer->data();
        const std::size_t size = buffer->size();
        std::size_t off = 0;
        while (off < size) {
            const wire::DecodeStatus status =
                wire::peekFrameHeader(data, size, off, header, end);
            if (status == wire::DecodeStatus::Truncated)
                break; // tail frame still arriving
            const FrameVerdict verdict =
                status == wire::DecodeStatus::Ok
                    ? on_frame(FrameSlice{header, buffer, off, end - off})
                    : FrameVerdict::Corrupt;
            if (verdict != FrameVerdict::Corrupt) {
                off = end;
                if (verdict == FrameVerdict::Stop)
                    break;
                continue;
            }
            // Resync at the next trustworthy boundary, so line noise
            // costs exactly the bytes it damaged.
            bool complete = false;
            const std::size_t next =
                wire::findFrameBoundary(data, size, off + 1, &complete);
            ++result.resyncs;
            result.resyncBytes += next - off;
            off = next;
            if (!complete)
                break;
        }
        in.assign(data + off, data + size);
    }
    result.withinCap = in.size() <= maxIn;
    return result;
}

IoStatus
FramedConn::flush(std::size_t max_bytes)
{
    IoStatus status = IoStatus::Ok;
    for (std::size_t left = std::min(max_bytes, pendingBytes());
         left > 0 && status == IoStatus::Ok;) {
        const ssize_t wrote = ::send(sock.get(), out.data() + outOff,
                                     left, MSG_NOSIGNAL);
        if (wrote > 0) {
            outOff += static_cast<std::size_t>(wrote);
            flushedTotal += static_cast<std::uint64_t>(wrote);
            left -= static_cast<std::size_t>(wrote);
        } else if (wrote < 0 &&
                   (errno == EAGAIN || errno == EWOULDBLOCK)) {
            status = IoStatus::WouldBlock;
        } else if (wrote >= 0 || errno != EINTR) {
            in.clear();
            out.clear();
            outOff = 0;
            inputDone = true;
            return IoStatus::Failed;
        }
    }
    // Free when drained; past 64 KiB written, move the rest down.
    if (outOff == out.size()) {
        out.clear();
        outOff = 0;
    } else if (outOff > (std::size_t{64} << 10)) {
        out.erase(out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(outOff));
        outOff = 0;
    }
    return status;
}

} // namespace hotpath::net
