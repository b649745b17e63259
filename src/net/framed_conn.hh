/**
 * @file
 * The one socket framing path of net::Server, cluster::Router and
 * net::Client: a socket, its reassembly buffer, the frame scan and
 * the outbound queue.
 *
 * scan() seals the reassembly buffer into one shared immutable buffer
 * and hands each complete frame out as a slice of it, so a caller
 * that keeps a frame (the server's zero-copy engine submit) holds a
 * reference, not a copy. Corrupt regions are resynced at the next
 * CRC-valid boundary (wire::findFrameBoundary) and counted. Only the
 * unparsed tail is copied into the next reassembly buffer, and only
 * it counts against the input cap. Not thread-safe.
 */

#ifndef HOTPATH_NET_FRAMED_CONN_HH
#define HOTPATH_NET_FRAMED_CONN_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/wire_format.hh"
#include "net/socket.hh"
#include "support/function_ref.hh"

namespace hotpath::net
{

/** Outcome of FramedConn::read() and FramedConn::flush(). */
enum class IoStatus : std::uint8_t
{
    Ok,         ///< bytes were read, or the requested bytes written
    WouldBlock, ///< the socket is not ready (EAGAIN)
    Eof,        ///< read only: the peer half-closed its write side
    Failed      ///< the connection broke
};

/** What a scan's caller says about one frame. */
enum class FrameVerdict : std::uint8_t
{
    Next,   ///< consumed; go on to the next frame
    Stop,   ///< consumed; leave the bytes after it for the next scan
    Corrupt ///< not a frame after all: resync past it
};

/** One complete frame handed out by FramedConn::scan(). */
struct FrameSlice
{
    /** The frame's parsed header (CRC not yet checked). */
    const wire::FrameHeader &header;
    /** The sealed buffer; copy the pointer to keep the bytes. */
    const std::shared_ptr<const std::vector<std::uint8_t>> &buffer;
    /** Offset of the frame's first byte in `buffer`. */
    std::size_t offset;
    /** Frame length in bytes. */
    std::size_t length;
};

/** What one FramedConn::scan() did. */
struct ScanResult
{
    /** False when the unparsed tail exceeds the input cap. */
    bool withinCap = true;
    /** Corrupt regions resynced past. */
    std::uint64_t resyncs = 0;
    /** Bytes skipped while resyncing. */
    std::uint64_t resyncBytes = 0;
};

/** A socket with frame reassembly and an outbound queue; see the
 *  file comment. */
class FramedConn
{
  public:
    /** Receives each complete frame of a scan. */
    using FrameFn = support::FunctionRef<FrameVerdict(const FrameSlice &)>;

    /** A closed connection. */
    FramedConn() = default;

    /** Frame the non-blocking stream socket `fd`; the unparsed tail
     *  may hold at most `max_in_bytes`, the unsent backlog at most
     *  `max_out_bytes`. */
    explicit FramedConn(Fd fd, std::size_t max_in_bytes = SIZE_MAX,
                        std::size_t max_out_bytes = SIZE_MAX)
        : sock(std::move(fd)), maxIn(max_in_bytes), maxOut(max_out_bytes)
    {
    }

    /** The socket descriptor (-1 once closed). */
    int fd() const { return sock.get(); }

    /** True while the socket is open. */
    bool open() const { return sock.valid(); }

    /** Close the socket; bytes already read stay scannable. */
    void close() { sock.reset(); }

    /** No more input will come: a read saw EOF or a write failed. */
    bool readClosed() const { return inputDone; }

    /** One read(2) of at most `chunk_bytes` (EINTR retried) into a
     *  per-thread scratch buffer; the `got` bytes read join the
     *  reassembly buffer. */
    IoStatus read(std::size_t chunk_bytes, std::size_t &got);

    /** Hand each complete frame buffered to `on_frame` in stream
     *  order, until a Stop verdict; the rest re-seeds the buffer. */
    ScanResult scan(FrameFn on_frame);

    /** Bytes read but not yet consumed by a scan. */
    std::size_t bufferedBytes() const { return in.size(); }

    /** Queue `size` bytes for writing. Returns false, queueing
     *  nothing, when they would take pendingBytes() past the output
     *  cap. */
    bool
    append(const std::uint8_t *data, std::size_t size)
    {
        if (size > maxOut - pendingBytes())
            return false;
        out.insert(out.end(), data, data + size);
        return true;
    }

    /** Queued bytes not yet written. */
    std::size_t pendingBytes() const { return out.size() - outOff; }

    /** Write at most `max_bytes` queued bytes, stopping early only
     *  when the socket would block. A Failed write means the peer is
     *  gone: both buffers are dropped and readClosed() turns true. */
    IoStatus flush(std::size_t max_bytes = SIZE_MAX);

    /** Bytes written over the connection's life. */
    std::uint64_t flushedBytes() const { return flushedTotal; }

  private:
    Fd sock;
    std::size_t maxIn = SIZE_MAX;
    std::size_t maxOut = SIZE_MAX;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    /** Written prefix of `out`. */
    std::size_t outOff = 0;
    std::uint64_t flushedTotal = 0;
    bool inputDone = false;
};

} // namespace hotpath::net

#endif // HOTPATH_NET_FRAMED_CONN_HH
