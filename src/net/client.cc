/**
 * @file
 * net::Client implementation; see client.hh for the design.
 */

#include "net/client.hh"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace hotpath::net
{

namespace
{

/** Cap on the connect backoff exponent: no retry sleeps longer than
 *  retryBaseMs * 2^6. */
constexpr std::uint32_t kRetryMaxExponent = 6;

/** SplitMix64 finalizer: the retry-jitter hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Client::Client(ClientConfig config) : cfg(std::move(config)) {}

bool
Client::connect()
{
    for (std::uint32_t attempt = 0; attempt < cfg.connectAttempts;
         ++attempt) {
        if (attempt > 0) {
            ++counters.connectRetries;
            const std::uint32_t exponent =
                std::min(attempt - 1, kRetryMaxExponent);
            // Equal jitter: sleep in [delay/2, delay]. Keeping at
            // least half the exponential delay preserves the worst
            // case total (a client never outlasts a slow-binding
            // server by less than before), while the hashed fraction
            // spreads a fleet's reconnect attempts apart.
            const std::uint64_t delay = cfg.retryBaseMs << exponent;
            const std::uint64_t half = delay / 2;
            const std::uint64_t jitter =
                half == 0 ? 0
                          : mix64(cfg.retryJitterSeed ^ attempt) %
                                (half + 1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay - half + jitter));
        }
        conn = FramedConn(connectTcp(cfg.host, cfg.port));
        if (conn.open())
            return true;
    }
    return false;
}

bool
Client::sendFrame(const std::uint8_t *data, std::size_t size)
{
    if (!conn.open())
        return false;
    const std::uint64_t before = conn.flushedBytes();
    conn.append(data, size);
    IoStatus status = conn.flush();
    while (status == IoStatus::WouldBlock &&
           waitFor(conn.fd(), POLLOUT, cfg.responseTimeoutMs))
        status = conn.flush();
    counters.bytesOut += conn.flushedBytes() - before;
    if (status != IoStatus::Ok) {
        close();
        return false;
    }
    ++counters.framesSent;
    return true;
}

bool
Client::sendEvents(std::uint64_t session, std::uint64_t sequence,
                   const PathEvent *events, std::size_t count)
{
    encodeScratch.clear();
    wire::appendEventFrame(encodeScratch, session, sequence, events,
                           count);
    return sendFrame(encodeScratch.data(), encodeScratch.size());
}

int
Client::poll(std::vector<PredictionReply> &replies,
             std::uint64_t timeout_ms)
{
    // Each poll scans all it read, so only an incomplete tail waits.
    if (!conn.open())
        return -1;
    // With no time to wait, the non-blocking read below answers the
    // same question (WouldBlock) without a poll(2) of its own.
    if (timeout_ms > 0 && !waitFor(conn.fd(), POLLIN, timeout_ms))
        return 0;

    constexpr std::size_t kChunk = 64 * 1024;
    for (;;) {
        std::size_t got = 0;
        const IoStatus status = conn.read(kChunk, got);
        if (status == IoStatus::Ok) {
            counters.bytesIn += got;
            if (got < kChunk)
                break;
            continue;
        }
        if (status == IoStatus::WouldBlock)
            break;
        conn.close();
        if (status == IoStatus::Failed)
            return -1;
        break; // server went away; decode what we have
    }

    int appended = 0;
    wire::DecodedFrame frame;
    const ScanResult scanned = conn.scan([&](const FrameSlice &slice) {
        std::size_t off = slice.offset;
        if (wire::decodeFrame(slice.buffer->data(),
                              slice.offset + slice.length, off,
                              frame) != wire::DecodeStatus::Ok)
            return FrameVerdict::Corrupt; // e.g. a bad CRC
        PredictionReply reply;
        reply.session = frame.header.session;
        reply.sequence = frame.header.sequence;
        // A SessionState frame answers a migration export request;
        // isState lets the router tell it from predictions. Other
        // kinds from a server would be a protocol surprise: skip
        // them quietly. (decodeFrame resets what is moved out.)
        reply.isState =
            frame.header.kind == wire::FrameKind::SessionState;
        if (reply.isState)
            reply.state = std::move(frame.state);
        else if (frame.header.kind == wire::FrameKind::Predictions)
            reply.predictions = std::move(frame.predictions);
        else
            return FrameVerdict::Next;
        replies.push_back(std::move(reply));
        ++counters.responsesReceived;
        ++appended;
        return FrameVerdict::Next;
    });
    counters.resyncs += scanned.resyncs;
    counters.resyncBytesSkipped += scanned.resyncBytes;
    return appended == 0 && !conn.open() ? -1 : appended;
}

bool
Client::awaitResponses(std::size_t count,
                       std::vector<PredictionReply> &replies)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(cfg.responseTimeoutMs);
    std::size_t received = 0;
    while (received < count) {
        const auto now = Clock::now();
        if (now >= deadline)
            return false;
        const auto leftMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count();
        const int got = poll(
            replies, static_cast<std::uint64_t>(leftMs));
        if (got < 0)
            return false;
        received += static_cast<std::size_t>(got);
    }
    return true;
}

} // namespace hotpath::net
