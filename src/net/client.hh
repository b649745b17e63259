/**
 * @file
 * Client library for the TCP serving layer.
 *
 * Requests are pipelined: sendEvents()/sendFrame() put frames on the
 * wire without waiting, and poll()/awaitResponses() collect replies
 * as they arrive, each naming the (session, sequence) of the frame it
 * answers. A synchronous round trip is a send followed by
 * awaitResponses(1).
 *
 * The connection is a net::FramedConn, the same reassembly and
 * resync path the server runs on requests. Each reply is
 * CRC-verified by wire::decodeFrame; a reply that fails it is
 * resynced past like any corrupt region, so one damaged reply never
 * desynchronizes the connection.
 *
 * connect() retries with exponential backoff (base * 2^attempt,
 * capped), which lets a client race a server that is still binding -
 * the pattern the loopback tests and the --connect demo rely on.
 */

#ifndef HOTPATH_NET_CLIENT_HH
#define HOTPATH_NET_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "engine/wire_format.hh"
#include "net/framed_conn.hh"

namespace hotpath::net
{

/** Client connection parameters. */
struct ClientConfig
{
    /** Server IPv4 address (dotted quad). */
    std::string host = "127.0.0.1";

    /** Server TCP port. */
    std::uint16_t port = 0;

    /** Connection attempts before connect() gives up. */
    std::uint32_t connectAttempts = 5;

    /** Backoff after the first failed attempt, in milliseconds;
     *  doubles per retry (base * 2^attempt), up to base * 2^6. */
    std::uint64_t retryBaseMs = 10;

    /**
     * Seed for the deterministic retry jitter. Each backoff sleeps
     * between half and all of the exponential delay, with the
     * fraction drawn from a SplitMix64 hash of (seed, attempt) - so
     * a fleet of clients seeded differently desynchronizes its
     * reconnect storms, yet any given (seed, attempt) pair always
     * sleeps the same amount and tests stay reproducible.
     */
    std::uint64_t retryJitterSeed = 0;

    /** Longest awaitResponses() spends waiting for replies, and a
     *  send for socket backpressure to clear, in milliseconds. */
    std::uint64_t responseTimeoutMs = 5000;
};

/** One prediction reply, matched to its request by
 *  (session, sequence). */
struct PredictionReply
{
    /** Session the predictions belong to. */
    std::uint64_t session = 0;

    /** Sequence of the event frame that produced them. */
    std::uint64_t sequence = 0;

    /** The predictions (may be empty: the frame was processed but
     *  predicted nothing, or was dropped under overload). */
    std::vector<wire::PredictionRecord> predictions;

    /** True when the reply is a SessionState snapshot (the answer to
     *  a migration export request) rather than predictions. */
    bool isState = false;

    /** The decoded snapshot; meaningful only when isState is true. */
    wire::SessionState state;
};

/** Client-side connection counters. */
struct ClientStats
{
    /** Bytes written to the socket. */
    std::uint64_t bytesOut = 0;
    /** Bytes read from the socket. */
    std::uint64_t bytesIn = 0;
    /** Event frames sent. */
    std::uint64_t framesSent = 0;
    /** Prediction replies received (CRC-verified). */
    std::uint64_t responsesReceived = 0;
    /** Corrupt reply regions resynced past. */
    std::uint64_t resyncs = 0;
    /** Bytes skipped while resyncing. */
    std::uint64_t resyncBytesSkipped = 0;
    /** Failed connection attempts that were retried. */
    std::uint64_t connectRetries = 0;
};

/** One client connection; see the file comment. Not thread-safe:
 *  one Client per thread. */
class Client
{
  public:
    /** Configure a client; no connection is made until connect(). */
    explicit Client(ClientConfig config);

    /** Closes the connection. */
    ~Client() = default;

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect with exponential-backoff retries; returns false when
     *  every attempt failed. */
    bool connect();

    /** True while the connection is usable. */
    bool connected() const { return conn.open(); }

    /** Close the connection (idempotent). */
    void close() { conn.close(); }

    /** Raw socket descriptor (-1 when closed), for callers that
     *  multiplex many clients under one ::poll. */
    int socketFd() const { return conn.fd(); }

    /**
     * Encode and send one path-event frame (pipelined: does not wait
     * for the reply). Blocks only on socket backpressure. Returns
     * false when the connection broke.
     */
    bool sendEvents(std::uint64_t session, std::uint64_t sequence,
                    const PathEvent *events,
                    std::size_t count);

    /** Send pre-encoded frame bytes (loadgen's fast path). */
    bool sendFrame(const std::uint8_t *data, std::size_t size);

    /**
     * Read whatever replies have arrived, waiting at most
     * `timeout_ms` for the first byte, and append them to `replies`.
     * Returns the number appended; 0 on timeout, -1 when the
     * connection broke.
     */
    int poll(std::vector<PredictionReply> &replies,
             std::uint64_t timeout_ms);

    /**
     * Wait until `count` more replies have been appended to
     * `replies` (bounded by ClientConfig::responseTimeoutMs
     * overall). Returns false on timeout or a broken connection.
     */
    bool awaitResponses(std::size_t count,
                        std::vector<PredictionReply> &replies);

    /** Connection counters so far. */
    const ClientStats &stats() const { return counters; }

  private:
    ClientConfig cfg;
    FramedConn conn;
    std::vector<std::uint8_t> encodeScratch;
    ClientStats counters;
};

} // namespace hotpath::net

#endif // HOTPATH_NET_CLIENT_HH
