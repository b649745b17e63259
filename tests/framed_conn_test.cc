/**
 * @file
 * net::FramedConn over a socketpair: a frame torn across reads, the
 * input cap applied to an incomplete tail only, a Stop verdict
 * leaving the suffix for the next scan, partial flushes delivering
 * every byte, and the output cap refusing a whole reply.
 */

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/wire_format.hh"
#include "net/framed_conn.hh"

using namespace hotpath;

namespace
{

/** A FramedConn on one end of a non-blocking socketpair and the raw
 *  other end, which plays the peer. */
struct Pair
{
    net::FramedConn conn;
    net::Fd peer;

    explicit Pair(std::size_t max_in_bytes =
                      std::numeric_limits<std::size_t>::max(),
                  std::size_t max_out_bytes =
                      std::numeric_limits<std::size_t>::max())
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0,
                               fds),
                  0);
        conn = net::FramedConn(net::Fd(fds[0]), max_in_bytes,
                               max_out_bytes);
        peer = net::Fd(fds[1]);
    }

    /** The peer writes `bytes` (small enough not to block). */
    void
    send(const std::vector<std::uint8_t> &bytes, std::size_t off = 0,
         std::size_t len = std::numeric_limits<std::size_t>::max())
    {
        len = std::min(len, bytes.size() - off);
        ASSERT_EQ(::send(peer.get(), bytes.data() + off, len,
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(len));
    }

    /** Read steps until the socket is empty; the bytes read. */
    std::size_t
    readAll()
    {
        std::size_t total = 0;
        std::size_t got = 0;
        while (conn.read(4096, got) == net::IoStatus::Ok)
            total += got;
        return total;
    }
};

/** One path-event frame of `events` events. */
std::vector<std::uint8_t>
eventFrame(std::uint64_t sequence, std::size_t events)
{
    std::vector<PathEvent> batch(events);
    for (std::size_t i = 0; i < events; ++i) {
        batch[i].path = static_cast<PathIndex>(i % 8);
        batch[i].head = static_cast<HeadIndex>(i % 4);
        batch[i].blocks = 4;
        batch[i].branches = 3;
        batch[i].instructions = 40;
    }
    std::vector<std::uint8_t> frame;
    wire::appendEventFrame(frame, 1, sequence, batch);
    return frame;
}

} // namespace

TEST(FramedConn, ReassemblesAFrameTornAcrossReads)
{
    Pair pair;
    const std::vector<std::uint8_t> frame = eventFrame(5, 48);
    std::vector<std::vector<std::uint8_t>> seen;
    const auto collect = [&](const net::FrameSlice &slice) {
        const std::uint8_t *bytes = slice.buffer->data() + slice.offset;
        seen.emplace_back(bytes, bytes + slice.length);
        EXPECT_EQ(slice.header.sequence, 5u);
        return net::FrameVerdict::Next;
    };
    for (std::size_t off = 0; off < frame.size(); off += 7) {
        pair.send(frame, off, 7);
        const std::size_t got = pair.readAll();
        EXPECT_EQ(got, std::min<std::size_t>(7, frame.size() - off));
        const net::ScanResult scanned = pair.conn.scan(collect);
        EXPECT_TRUE(scanned.withinCap);
        EXPECT_EQ(scanned.resyncs, 0u);
        if (off + got < frame.size()) {
            EXPECT_TRUE(seen.empty());
            EXPECT_EQ(pair.conn.bufferedBytes(), off + got);
        }
    }
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], frame);
    EXPECT_EQ(pair.conn.bufferedBytes(), 0u);
}

TEST(FramedConn, InputCapCountsOnlyAnIncompleteTail)
{
    // Eight complete frames, over three times the cap, arrive with
    // the first 100 bytes of a frame larger than the cap: every
    // complete frame is handed out and the tail fits.
    constexpr std::size_t kCap = 512;
    Pair pair(kCap);
    std::vector<std::uint8_t> burst;
    for (std::uint64_t seq = 0; seq < 8; ++seq) {
        const std::vector<std::uint8_t> frame = eventFrame(seq, 48);
        burst.insert(burst.end(), frame.begin(), frame.end());
    }
    ASSERT_GT(burst.size(), 3 * kCap);
    const std::vector<std::uint8_t> big = eventFrame(8, 400);
    ASSERT_GT(big.size(), 2 * kCap);
    burst.insert(burst.end(), big.begin(), big.begin() + 100);
    pair.send(burst);
    EXPECT_EQ(pair.readAll(), burst.size());

    std::size_t frames = 0;
    net::ScanResult scanned =
        pair.conn.scan([&](const net::FrameSlice &) {
            ++frames;
            return net::FrameVerdict::Next;
        });
    EXPECT_TRUE(scanned.withinCap);
    EXPECT_EQ(frames, 8u);
    EXPECT_EQ(pair.conn.bufferedBytes(), 100u);

    // More of the big frame, still incomplete: now the tail itself
    // exceeds the cap.
    pair.send(big, 100, kCap);
    pair.readAll();
    scanned = pair.conn.scan([&](const net::FrameSlice &) {
        ++frames;
        return net::FrameVerdict::Next;
    });
    EXPECT_FALSE(scanned.withinCap);
    EXPECT_EQ(frames, 8u);
}

TEST(FramedConn, StopVerdictLeavesTheSuffixForTheNextScan)
{
    Pair pair;
    std::vector<std::uint8_t> stream;
    std::vector<std::size_t> sizes;
    for (std::uint64_t seq = 0; seq < 3; ++seq) {
        const std::vector<std::uint8_t> frame = eventFrame(seq, 16);
        sizes.push_back(frame.size());
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    pair.send(stream);
    pair.readAll();

    // Stop on the first frame, keeping its slice past the scan.
    std::shared_ptr<const std::vector<std::uint8_t>> kept;
    std::size_t keptOff = 0;
    std::vector<std::uint64_t> seen;
    pair.conn.scan([&](const net::FrameSlice &slice) {
        seen.push_back(slice.header.sequence);
        kept = slice.buffer;
        keptOff = slice.offset;
        return net::FrameVerdict::Stop;
    });
    EXPECT_EQ(seen, std::vector<std::uint64_t>{0});
    EXPECT_EQ(pair.conn.bufferedBytes(), sizes[1] + sizes[2]);
    ASSERT_NE(kept, nullptr);
    EXPECT_TRUE(std::equal(stream.begin(),
                           stream.begin() +
                               static_cast<std::ptrdiff_t>(sizes[0]),
                           kept->begin() +
                               static_cast<std::ptrdiff_t>(keptOff)));

    // The next scan, with no read in between, resumes at frame 1.
    pair.conn.scan([&](const net::FrameSlice &slice) {
        seen.push_back(slice.header.sequence);
        return net::FrameVerdict::Next;
    });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(pair.conn.bufferedBytes(), 0u);
}

TEST(FramedConn, PartialFlushesDeliverEveryByte)
{
    Pair pair;
    const int sndbuf = 4096;
    ASSERT_EQ(::setsockopt(pair.conn.fd(), SOL_SOCKET, SO_SNDBUF,
                           &sndbuf, sizeof(sndbuf)),
              0);
    std::vector<std::uint8_t> sent(std::size_t{1} << 20);
    for (std::size_t i = 0; i < sent.size(); ++i)
        sent[i] = static_cast<std::uint8_t>(i * 131 + i / 251);
    for (std::size_t off = 0; off < sent.size(); off += 16384)
        pair.conn.append(sent.data() + off, 16384);
    ASSERT_EQ(pair.conn.pendingBytes(), sent.size());

    // A capped flush writes exactly its cap.
    ASSERT_EQ(pair.conn.flush(1000), net::IoStatus::Ok);
    EXPECT_EQ(pair.conn.flushedBytes(), 1000u);
    EXPECT_EQ(pair.conn.pendingBytes(), sent.size() - 1000);

    // Then flush to completion while the peer drains, through many
    // would-block flushes (and the queue's compaction).
    std::vector<std::uint8_t> received;
    std::size_t blocked = 0;
    std::uint8_t buf[8192];
    while (received.size() < sent.size()) {
        if (pair.conn.pendingBytes() > 0) {
            const net::IoStatus status = pair.conn.flush();
            ASSERT_NE(status, net::IoStatus::Failed);
            if (status == net::IoStatus::WouldBlock)
                ++blocked;
        }
        pollfd pfd{pair.peer.get(), POLLIN, 0};
        ASSERT_GT(::poll(&pfd, 1, 1000), 0);
        const ssize_t got = ::read(pair.peer.get(), buf, sizeof(buf));
        ASSERT_GT(got, 0);
        received.insert(received.end(), buf, buf + got);
    }
    EXPECT_GT(blocked, 0u);
    EXPECT_EQ(pair.conn.pendingBytes(), 0u);
    EXPECT_EQ(pair.conn.flushedBytes(), sent.size());
    EXPECT_EQ(received, sent);
}

TEST(FramedConn, OutputCapRefusesAReplyThatWouldOverflowTheBacklog)
{
    // The one backlog rule of the server's and the router's reply
    // paths: a reply that would take the unsent bytes past the cap is
    // refused whole, and one that lands exactly on it is taken.
    Pair pair(std::numeric_limits<std::size_t>::max(),
              /*max_out_bytes=*/100);
    const std::vector<std::uint8_t> reply(40, 0xAB);
    EXPECT_TRUE(pair.conn.append(reply.data(), 40));
    EXPECT_TRUE(pair.conn.append(reply.data(), 40));
    EXPECT_FALSE(pair.conn.append(reply.data(), 40));
    EXPECT_EQ(pair.conn.pendingBytes(), 80u);
    EXPECT_TRUE(pair.conn.append(reply.data(), 20));
    EXPECT_FALSE(pair.conn.append(reply.data(), 1));
    EXPECT_EQ(pair.conn.pendingBytes(), 100u);

    // Written bytes leave the backlog, which makes room again.
    ASSERT_EQ(pair.conn.flush(), net::IoStatus::Ok);
    EXPECT_EQ(pair.conn.pendingBytes(), 0u);
    EXPECT_TRUE(pair.conn.append(reply.data(), 40));
    ASSERT_EQ(pair.conn.flush(), net::IoStatus::Ok);

    // The peer gets exactly the accepted bytes.
    std::uint8_t buf[256];
    const ssize_t got = ::read(pair.peer.get(), buf, sizeof(buf));
    EXPECT_EQ(got, 140);
    EXPECT_EQ(pair.conn.flushedBytes(), 140u);

    // A reply larger than the cap is refused even with no backlog.
    Pair tiny(std::numeric_limits<std::size_t>::max(),
              /*max_out_bytes=*/10);
    EXPECT_FALSE(tiny.conn.append(reply.data(), reply.size()));
    EXPECT_EQ(tiny.conn.pendingBytes(), 0u);
}
