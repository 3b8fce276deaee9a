/**
 * @file
 * Wire protocol for the TCP index front-end.
 *
 * Length-prefixed little-endian binary frames, one request or
 * response per frame (see src/net/README.md for a worked byte-level
 * example). Every frame is
 *
 *     u32 length | payload[length]
 *
 * where `length` counts the payload bytes after the length field.
 * A request payload is a 24-byte header followed by an optional
 * trace-id trailer, the key array, and (mutation kinds only) the
 * payload array:
 *
 *     u64 reqId     client-chosen correlation id, echoed back
 *     u8  kind      wire kind: 0 Count, 1 Probe, 2 Join (their
 *                   RequestKind bytes), the wire-only
 *                   kWireKindStats (3: scrape the server's
 *                   metrics registry, nKeys must be 0) and
 *                   kWireKindHello (4: version handshake, see
 *                   below), or the v2 mutation kinds 5 Insert,
 *                   6 Delete, 7 Upsert. Mutations deliberately do
 *                   NOT reuse the RequestKind bytes: Insert's
 *                   in-process value (3) is Stats on the wire, so
 *                   the mapping is explicit (wireKindOf /
 *                   serviceKindOfWire), never a cast.
 *     u8  flags     bit 0 (kReqFlagTraceId): a u64 trace id follows
 *                   the header, before the keys; bit 1
 *                   (kReqFlagPayloads): a u64 payload array follows
 *                   the keys — required on Insert/Upsert, forbidden
 *                   elsewhere; other bits must be 0 (they are
 *                   framing errors, so old peers reject rather than
 *                   misparse frames from newer ones)
 *     u16 reserved  must be 0
 *     u32 nKeys     number of u64 keys that follow
 *     u64 deadlineNs  *relative* service deadline (0 = none): the
 *                     server anchors it to its own clock at parse
 *                     time, so client and server clocks never meet
 *     u64 traceId   only when flags bit 0 is set (opt-in request
 *                   tracing; see obs/trace.hh)
 *     u64 keys[nKeys]
 *     u64 payloads[nKeys]  only when flags bit 1 is set
 *
 * Versioning: every connection opens with one Hello frame (kind 4,
 * nKeys = 1, the single "key" carrying kWireProtocolVersion, which
 * is 2); the server answers with a Hello response (matches = its own
 * version), and only then serves the connection's other frames. A
 * Hello announcing a version the server does not speak, and any
 * well-formed frame ahead of the Hello, is answered with
 * Status::UnsupportedVersion (the refusal echoes the frame's kind)
 * and the connection is closed after the response flushes. Framing
 * checks run first, so a malformed frame is a framing error whether
 * or not Hello was said. Servers that predate v2 treat kind 4 as a
 * framing error and drop the connection — the client fails fast
 * rather than silently losing writes.
 *
 * A response payload is a 24-byte header followed by the records:
 *
 *     u64 reqId     echoed from the request
 *     u8  status    Status (0 Ok, 1 Rejected, 2 DeadlineExceeded,
 *                   3 Cancelled, 4 UnsupportedVersion)
 *     u8  kind      echoed from the request (wire kind byte)
 *     u16 reserved  0
 *     u32 nRecs     number of 24-byte records that follow
 *                   (0 for Count — matches carries the tally)
 *     u64 matches   ServiceResult::matches
 *     {u64 pos, u64 key, u64 payload}[nRecs]
 *
 * A Stats response (kind = kWireKindStats) reuses the response
 * header with nRecs = 0 and carries the Prometheus exposition text
 * as its raw payload; `matches` holds the text byte length (see
 * appendStatsResponse / parseStatsResponse).
 *
 * The header structs below are naturally packed to these layouts on
 * every platform we target (static_asserts enforce it), and the
 * protocol's byte order is the native order of a little-endian host
 * — the build refuses big-endian targets rather than silently
 * byte-swapping.
 *
 * Framing errors (oversized frame, unknown kind, nonzero reserved
 * bytes, length/nKeys mismatch) are not recoverable mid-stream:
 * both ends drop the connection on the first malformed frame. The
 * writer never produces one: a result too fan-heavy to frame under
 * kMaxFrameBytes is downgraded to a record-less Rejected response
 * (kMaxRecsPerResponse) rather than sent oversized.
 */

#ifndef WIDX_NET_PROTOCOL_HH
#define WIDX_NET_PROTOCOL_HH

#include <bit>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "service/index_service.hh"

namespace widx::net {

static_assert(std::endian::native == std::endian::little,
              "the wire protocol is little-endian and this build "
              "does not byte-swap");

/** Per-request key cap: bounds a request frame (and the walker
 *  memory one connection can pin) at ~512 KiB of keys. */
inline constexpr u32 kMaxKeysPerRequest = 1u << 16;
/** Request frames are bounded by kMaxKeysPerRequest; responses by
 *  the match count, which can exceed the key count (duplicates in
 *  the build side). A reader rejects anything over this as a
 *  framing error rather than allocating unbounded memory. */
inline constexpr u32 kMaxFrameBytes = 64u << 20;

/** Request flag: a u64 trace id sits between the header and the
 *  keys (opt-in span tracing, SubmitOptions::traceId). */
inline constexpr u8 kReqFlagTraceId = 0x1;
/** Request flag: a u64 payload array (one per key) follows the
 *  keys. Required on the Insert/Upsert wire kinds, a framing error
 *  on every other kind (Delete carries keys only). */
inline constexpr u8 kReqFlagPayloads = 0x2;

/** Wire-only request kind: serialize the server's metrics registry
 *  into the response. Never enters sw::RequestKind — it is handled
 *  entirely in the front-end, before service submission. A Stats
 *  request carries no keys, no deadline, no trace id. */
inline constexpr u8 kWireKindStats = 3;

/** The protocol version this build speaks and requires in the
 *  connection's opening Hello (v2: Hello + mutations). */
inline constexpr u64 kWireProtocolVersion = 2;

/** Wire-only request kind: version handshake. nKeys = 1 and the
 *  single "key" carries the client's protocol version; the response
 *  echoes the server's version in `matches`. Handled entirely in
 *  the front-end, like Stats. */
inline constexpr u8 kWireKindHello = 4;

/** v2 mutation wire kinds. These do not equal the u8 of their
 *  sw::RequestKind (Insert's in-process byte, 3, is Stats on the
 *  wire) — always translate through wireKindOf/serviceKindOfWire. */
inline constexpr u8 kWireKindInsert = 5;
inline constexpr u8 kWireKindDelete = 6;
inline constexpr u8 kWireKindUpsert = 7;

constexpr bool
wireKindIsMutation(u8 w)
{
    return w >= kWireKindInsert && w <= kWireKindUpsert;
}

/** Service kind -> wire kind byte. Count/Probe/Join keep their
 *  RequestKind bytes; mutation kinds shift past Stats/Hello. */
constexpr u8
wireKindOf(sw::RequestKind k)
{
    switch (k) {
      case sw::RequestKind::Insert:
        return kWireKindInsert;
      case sw::RequestKind::Delete:
        return kWireKindDelete;
      case sw::RequestKind::Upsert:
        return kWireKindUpsert;
      default:
        return u8(k);
    }
}

/** Wire kind byte -> service kind; false for the wire-only kinds
 *  (Stats, Hello) and anything unknown. */
constexpr bool
serviceKindOfWire(u8 w, sw::RequestKind &k)
{
    switch (w) {
      case u8(sw::RequestKind::Count):
      case u8(sw::RequestKind::Probe):
      case u8(sw::RequestKind::Join):
        k = sw::RequestKind(w);
        return true;
      case kWireKindInsert:
        k = sw::RequestKind::Insert;
        return true;
      case kWireKindDelete:
        k = sw::RequestKind::Delete;
        return true;
      case kWireKindUpsert:
        k = sw::RequestKind::Upsert;
        return true;
      default:
        return false;
    }
}

struct ReqHeader
{
    u64 reqId = 0;
    u8 kind = 0;
    u8 flags = 0; ///< kReqFlag* bits; unknown bits are errors
    u16 rsv1 = 0;
    u32 nKeys = 0;
    u64 deadlineNs = 0; ///< relative (0 = none)
};
static_assert(sizeof(ReqHeader) == 24 &&
              std::is_trivially_copyable_v<ReqHeader>);

struct RespHeader
{
    u64 reqId = 0;
    u8 status = 0;
    u8 kind = 0;
    u16 rsv = 0;
    u32 nRecs = 0;
    u64 matches = 0;
};
static_assert(sizeof(RespHeader) == 24 &&
              std::is_trivially_copyable_v<RespHeader>);

/** One materialized match on the wire. `pos` is the key's position
 *  in the request's key array (MatchRec::i). */
struct WireRec
{
    u64 pos = 0;
    u64 key = 0;
    u64 payload = 0;
};
static_assert(sizeof(WireRec) == 24 &&
              std::is_trivially_copyable_v<WireRec>);

/** Writer-side mirror of kMaxFrameBytes: the most records one
 *  response frame can carry (~2.8M). A higher-fanout result cannot
 *  be framed — the peer would drop it as a framing error, and far
 *  beyond it (~178M records) the u32 length prefix itself would
 *  wrap — so appendResponse downgrades it to a record-less
 *  Status::Rejected response (see its doc). */
inline constexpr u32 kMaxRecsPerResponse =
    u32((kMaxFrameBytes - sizeof(RespHeader)) / sizeof(WireRec));

inline void
appendBytes(std::vector<u8> &out, const void *p, std::size_t n)
{
    const auto *b = static_cast<const u8 *>(p);
    out.insert(out.end(), b, b + n);
}

/** Serialize one request frame (length prefix included). A nonzero
 *  `traceId` sets kReqFlagTraceId and rides the trailer. Insert and
 *  Upsert require one payload per key (the payloads trailer is what
 *  makes the frame well-formed); other kinds ignore `payloads`. */
inline void
appendRequest(std::vector<u8> &out, u64 reqId, sw::RequestKind kind,
              u64 deadlineNs, std::span<const u64> keys,
              u64 traceId = 0, std::span<const u64> payloads = {})
{
    const bool withPayloads = kind == sw::RequestKind::Insert ||
                              kind == sw::RequestKind::Upsert;
    panic_if(withPayloads && payloads.size() != keys.size(),
             "insert/upsert frames need one payload per key");
    ReqHeader h;
    h.reqId = reqId;
    h.kind = wireKindOf(kind);
    if (traceId)
        h.flags |= kReqFlagTraceId;
    if (withPayloads)
        h.flags |= kReqFlagPayloads;
    h.nKeys = u32(keys.size());
    h.deadlineNs = deadlineNs;
    const u32 len =
        u32(sizeof(h) + (traceId ? 8 : 0) + keys.size_bytes() +
            (withPayloads ? payloads.size_bytes() : 0));
    appendBytes(out, &len, sizeof(len));
    appendBytes(out, &h, sizeof(h));
    if (traceId)
        appendBytes(out, &traceId, sizeof(traceId));
    appendBytes(out, keys.data(), keys.size_bytes());
    if (withPayloads)
        appendBytes(out, payloads.data(), payloads.size_bytes());
}

/** Serialize one Hello frame: the version rides as the single key. */
inline void
appendHello(std::vector<u8> &out, u64 reqId,
            u64 version = kWireProtocolVersion)
{
    ReqHeader h;
    h.reqId = reqId;
    h.kind = kWireKindHello;
    h.nKeys = 1;
    const u32 len = u32(sizeof(h) + 8);
    appendBytes(out, &len, sizeof(len));
    appendBytes(out, &h, sizeof(h));
    appendBytes(out, &version, sizeof(version));
}

/** Serialize a Hello response: `matches` carries the responder's
 *  protocol version; status is Ok or UnsupportedVersion. */
inline void
appendHelloResponse(std::vector<u8> &out, u64 reqId, sw::Status st)
{
    RespHeader h;
    h.reqId = reqId;
    h.status = u8(st);
    h.kind = kWireKindHello;
    h.matches = kWireProtocolVersion;
    const u32 len = u32(sizeof(h));
    appendBytes(out, &len, sizeof(len));
    appendBytes(out, &h, sizeof(h));
}

/** Serialize a record-less response echoing a request's wire kind
 *  byte: how the front-end refuses a well-formed frame it will not
 *  serve (UnsupportedVersion ahead of the Hello). `matches` is 0,
 *  so it parses as an empty non-Ok result for every kind, Stats
 *  included. */
inline void
appendStatusResponse(std::vector<u8> &out, u64 reqId, u8 wireKind,
                     sw::Status st)
{
    RespHeader h;
    h.reqId = reqId;
    h.status = u8(st);
    h.kind = wireKind;
    const u32 len = u32(sizeof(h));
    appendBytes(out, &len, sizeof(len));
    appendBytes(out, &h, sizeof(h));
}

/** Validate and decode a Hello response payload. Route on the
 *  header's kind byte (payload offset 9 == kWireKindHello), like
 *  Stats. Returns false on a framing violation. */
inline bool
parseHelloResponse(const u8 *p, std::size_t len, u64 &reqId,
                   sw::Status &st, u64 &serverVersion)
{
    if (len != sizeof(RespHeader))
        return false;
    RespHeader h;
    std::memcpy(&h, p, sizeof(h));
    if (h.kind != kWireKindHello || h.rsv || h.nRecs ||
        h.status > u8(sw::Status::UnsupportedVersion))
        return false;
    reqId = h.reqId;
    st = sw::Status(h.status);
    serverVersion = h.matches;
    return true;
}

/** Serialize one Stats request frame: header only, kind 3. */
inline void
appendStatsRequest(std::vector<u8> &out, u64 reqId)
{
    ReqHeader h;
    h.reqId = reqId;
    h.kind = kWireKindStats;
    const u32 len = u32(sizeof(h));
    appendBytes(out, &len, sizeof(len));
    appendBytes(out, &h, sizeof(h));
}

/** Serialize one response frame (length prefix included). A result
 *  with more than kMaxRecsPerResponse records cannot be framed
 *  within the reader's kMaxFrameBytes bound (the peer would drop
 *  the connection as a protocol error); it is sent as a record-less
 *  Status::Rejected response instead — `matches` still carries the
 *  tally, but per the non-Ok contract the peer must not treat the
 *  result as served. Keeps writer and reader bounds consistent: no
 *  well-formed ServiceResult can poison the stream. */
inline void
appendResponse(std::vector<u8> &out, u64 reqId, sw::RequestKind kind,
               const sw::ServiceResult &r)
{
    RespHeader h;
    h.reqId = reqId;
    h.status = u8(r.status);
    h.kind = wireKindOf(kind);
    h.matches = r.matches;
    std::size_t nRecs = r.recs.size();
    if (nRecs > kMaxRecsPerResponse) {
        h.status = u8(sw::Status::Rejected);
        nRecs = 0;
    }
    h.nRecs = u32(nRecs);
    const u32 len = u32(sizeof(h) + nRecs * sizeof(WireRec));
    appendBytes(out, &len, sizeof(len));
    appendBytes(out, &h, sizeof(h));
    for (std::size_t i = 0; i < nRecs; ++i) {
        const sw::MatchRec &rec = r.recs[i];
        const WireRec w{u64(rec.i), rec.key, rec.payload};
        appendBytes(out, &w, sizeof(w));
    }
}

/** Validate and decode a request payload (the bytes after the
 *  length prefix). Keys land in `keys` (overwritten); a mutation
 *  frame's payload trailer lands in `*payloads` (required non-null
 *  to accept one — a caller that cannot carry payloads rejects
 *  mutation frames as framing errors). A Hello frame parses with
 *  the client's version as keys[0]. Returns false on any framing
 *  violation — the caller must drop the connection. */
inline bool
parseRequest(const u8 *p, std::size_t len, ReqHeader &h,
             std::vector<u64> &keys, u64 *traceId = nullptr,
             std::vector<u64> *payloads = nullptr)
{
    if (traceId)
        *traceId = 0;
    if (payloads)
        payloads->clear();
    if (len < sizeof(ReqHeader))
        return false;
    std::memcpy(&h, p, sizeof(h));
    const bool stats = h.kind == kWireKindStats;
    const bool hello = h.kind == kWireKindHello;
    const bool mut = wireKindIsMutation(h.kind);
    if ((h.kind > u8(sw::RequestKind::Join) && !stats && !hello &&
         !mut) ||
        (h.flags & ~(kReqFlagTraceId | kReqFlagPayloads)) || h.rsv1)
        return false;
    if (stats && (h.nKeys || h.flags || h.deadlineNs))
        return false; // a Stats request is a bare header
    if (hello && (h.nKeys != 1 || h.flags || h.deadlineNs))
        return false; // a Hello is a header plus the version word
    // Insert/Upsert promise a payload trailer; nothing else may
    // carry one (Delete is keys-only).
    const bool wantPayloads = h.kind == kWireKindInsert ||
                              h.kind == kWireKindUpsert;
    if (bool(h.flags & kReqFlagPayloads) != wantPayloads)
        return false;
    if (wantPayloads && !payloads)
        return false;
    if (h.nKeys > kMaxKeysPerRequest)
        return false;
    std::size_t off = sizeof(ReqHeader);
    if (h.flags & kReqFlagTraceId) {
        if (len < off + 8)
            return false;
        u64 t;
        std::memcpy(&t, p + off, 8);
        if (t == 0)
            return false; // the flag promises a real id
        if (traceId)
            *traceId = t;
        off += 8;
    }
    const std::size_t keyBytes = std::size_t(h.nKeys) * 8;
    if (len != off + keyBytes * (wantPayloads ? 2 : 1))
        return false;
    keys.resize(h.nKeys);
    std::memcpy(keys.data(), p + off, keyBytes);
    if (wantPayloads) {
        payloads->resize(h.nKeys);
        std::memcpy(payloads->data(), p + off + keyBytes, keyBytes);
    }
    return true;
}

/** Validate and decode a response payload into a ServiceResult.
 *  `completedAtNs` is left 0 — the client stamps receipt time. */
inline bool
parseResponse(const u8 *p, std::size_t len, RespHeader &h,
              sw::ServiceResult &r)
{
    if (len < sizeof(RespHeader))
        return false;
    std::memcpy(&h, p, sizeof(h));
    if (h.status > u8(sw::Status::UnsupportedVersion) ||
        (h.kind > u8(sw::RequestKind::Join) &&
         !wireKindIsMutation(h.kind)) ||
        h.rsv)
        return false;
    if (len != sizeof(RespHeader) +
                   std::size_t(h.nRecs) * sizeof(WireRec))
        return false;
    r.status = sw::Status(h.status);
    r.matches = h.matches;
    r.recs.resize(h.nRecs);
    for (u32 i = 0; i < h.nRecs; ++i) {
        WireRec w;
        std::memcpy(&w, p + sizeof(RespHeader) + i * sizeof(WireRec),
                    sizeof(w));
        r.recs[i] = {std::size_t(w.pos), w.key, w.payload};
    }
    return true;
}

/** Serialize a Stats response: the exposition text as the raw
 *  payload after the header (matches = text byte length). Text too
 *  large to frame is downgraded to an empty Rejected response, the
 *  same never-poison-the-stream rule as appendResponse. */
inline void
appendStatsResponse(std::vector<u8> &out, u64 reqId,
                    std::string_view text)
{
    RespHeader h;
    h.reqId = reqId;
    h.kind = kWireKindStats;
    if (text.size() > kMaxFrameBytes - sizeof(RespHeader)) {
        h.status = u8(sw::Status::Rejected);
        text = {};
    }
    h.matches = text.size();
    const u32 len = u32(sizeof(h) + text.size());
    appendBytes(out, &len, sizeof(len));
    appendBytes(out, &h, sizeof(h));
    appendBytes(out, text.data(), text.size());
}

/** Validate and decode a Stats response payload. Returns false on a
 *  framing violation (drop the connection); a well-formed non-Ok
 *  response returns true with `text` empty. Route on the header's
 *  kind byte (payload offset 9 == kWireKindStats) before calling
 *  parseResponse, which rejects the Stats kind. */
inline bool
parseStatsResponse(const u8 *p, std::size_t len, u64 &reqId,
                   std::string &text)
{
    if (len < sizeof(RespHeader))
        return false;
    RespHeader h;
    std::memcpy(&h, p, sizeof(h));
    if (h.kind != kWireKindStats || h.rsv || h.nRecs)
        return false;
    if (h.matches != u64(len - sizeof(RespHeader)))
        return false;
    reqId = h.reqId;
    text.clear();
    if (h.status == u8(sw::Status::Ok))
        text.assign(reinterpret_cast<const char *>(p) +
                        sizeof(RespHeader),
                    len - sizeof(RespHeader));
    return true;
}

/**
 * Incremental frame splitter over a connection's receive buffer:
 * feed bytes as they arrive, pop complete payloads. The popped view
 * points into the internal buffer and is invalidated by the next
 * feed() — decode before feeding again.
 */
class FrameReader
{
  public:
    void
    feed(const u8 *p, std::size_t n)
    {
        // Reclaim the consumed prefix before growing: no popped
        // view is live across a feed (documented above), and the
        // one memmove per read keeps the buffer bounded by the
        // largest in-progress frame plus one read's worth of bytes.
        if (off_ > 0) {
            buf_.erase(buf_.begin(),
                       buf_.begin() + std::ptrdiff_t(off_));
            off_ = 0;
        }
        buf_.insert(buf_.end(), p, p + n);
    }

    /** Pop the next complete payload, or return false. Sets `bad`
     *  (and returns false) on an oversized length prefix. */
    bool
    next(std::span<const u8> &payload, bool &bad)
    {
        if (off_ > 0 && off_ == buf_.size()) {
            buf_.clear();
            off_ = 0;
        }
        const std::size_t avail = buf_.size() - off_;
        if (avail < 4)
            return false;
        u32 len;
        std::memcpy(&len, buf_.data() + off_, 4);
        if (len < sizeof(ReqHeader) || len > kMaxFrameBytes) {
            bad = true;
            return false;
        }
        if (avail < 4 + std::size_t(len))
            return false;
        payload = {buf_.data() + off_ + 4, len};
        off_ += 4 + std::size_t(len);
        return true;
    }

  private:
    std::vector<u8> buf_;
    std::size_t off_ = 0; ///< consumed prefix, reclaimed when drained
};

} // namespace widx::net

#endif // WIDX_NET_PROTOCOL_HH
