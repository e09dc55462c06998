/**
 * @file
 * Versioned, self-describing binary snapshots of post-warmup state.
 *
 * A snapshot is the serialized mutable state of every component the
 * functional warmup touches (caches, predictor, prefetchers, workload
 * generator, power accumulators - see DESIGN.md §5f). Saving it right
 * after Simulator warmup and restoring it into a freshly constructed
 * Simulator skips the warmup entirely while staying bit-identical:
 * doubles travel as raw IEEE-754 bytes, so every registered scalar
 * round-trips exactly.
 *
 * File layout (little-endian, mirroring the trace-file idiom):
 *   header:  magic "VSVS" (4B), version u32,
 *            warmup-fingerprint string (u32 length + bytes)
 *   section: tag string (u32 length + bytes), payload size u64,
 *            payload bytes, FNV-1a 64 checksum of the payload u64
 *   trailer: the section tag "end" with an empty payload
 *
 * Sections are written and read strictly in order; the tag + size +
 * checksum framing means any corruption, truncation or version skew
 * surfaces as a SnapshotError with a message naming the failure, never
 * as silently wrong state. Writers buffer each section in memory so
 * the target stream needs no seeking. Readers copy each section out of
 * an ordinary stream, but checksum and decode it in place when the
 * stream reads a SnapshotView.
 */

#ifndef VSV_SNAPSHOT_SNAPSHOT_HH
#define VSV_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>

#include "stats/stats.hh"

namespace vsv
{

/** Bump when the snapshot layout changes; readers reject other
 *  versions outright (a snapshot is a cache entry, not an archive).
 *  v2: multi-core layout - the "sim" section carries a core count and
 *  per-core profile names, the hierarchy serializes per-core L1/MSHR
 *  sections, and the bus appends per-requestor counters. */
constexpr std::uint32_t snapshotFormatVersion = 2;

/**
 * Any structural problem with a snapshot stream: bad magic, version
 * skew, truncation, checksum mismatch, unexpected section tag, or
 * state that disagrees with the restoring simulator's geometry.
 * Simulator::restoreFrom converts it into a fatal(); the sweep
 * runner's cache treats it as a miss and falls back to a fresh warmup.
 */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A read-only, seekable stream buffer over snapshot bytes owned
 * elsewhere. A SnapshotReader on a stream that reads one takes each
 * section's payload straight from these bytes instead of copying it.
 */
class SnapshotView : public std::streambuf
{
  public:
    explicit SnapshotView(std::string_view bytes);

    /** The bytes not yet read. */
    std::string_view
    unread() const
    {
        return {gptr(), static_cast<std::size_t>(egptr() - gptr())};
    }

    /** Consume the next n unread bytes; n <= unread().size(). */
    void skip(std::size_t n) { setg(eback(), gptr() + n, egptr()); }

  protected:
    pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                     std::ios_base::openmode which) override;
    pos_type seekpos(pos_type pos, std::ios_base::openmode which) override;
};

/** Serializes sections into an output stream. */
class SnapshotWriter
{
  public:
    /** Writes the header immediately; `fingerprint` is the warmup
     *  fingerprint of the options that produced this state. */
    SnapshotWriter(std::ostream &os, std::string_view fingerprint);

    /** Open a section; every value lands in it until end(). */
    void begin(std::string_view tag);
    /** Close the open section: writes tag, size, payload, checksum. */
    void end();
    /** Write the trailer; the writer is unusable afterwards. */
    void finish();

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v);
    void i64(std::int64_t v);
    /** Raw IEEE-754 bytes: restored doubles are bit-identical. */
    void f64(double v);
    void b(bool v);
    void str(std::string_view s);
    /** A stat accumulator's current value (raw double). */
    void scalar(const Scalar &s);

  private:
    std::ostream &os;
    std::string buffer;      ///< payload of the open section
    std::string tag;         ///< tag of the open section
    bool inSection = false;
    bool finished = false;
};

/** Reads sections back, validating framing as it goes. */
class SnapshotReader
{
  public:
    /** Parses and validates the header; throws SnapshotError on bad
     *  magic, unsupported version, or a truncated stream. The stream
     *  must be seekable, so that a section's declared size can be
     *  checked against the bytes that remain before it is read. When
     *  it reads a SnapshotView, sections are decoded in place, so the
     *  viewed bytes must outlive the reader. */
    explicit SnapshotReader(std::istream &is);

    /** The warmup fingerprint recorded at write time. */
    const std::string &fingerprint() const { return fingerprint_; }

    /** Open the next section; throws unless its tag matches. */
    void begin(std::string_view tag);
    /** Close the section; throws if any payload bytes are left. */
    void end();
    /** The trailer must be next; throws otherwise. */
    void expectEnd();

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32();
    std::int64_t i64();
    double f64();
    bool b();
    std::string str();
    /** Restore a stat accumulator to exactly the written value. */
    void scalar(Scalar &s);

    /**
     * Read a u32 and throw unless it equals `expected`; `what` names
     * the quantity in the error message. Components use this to guard
     * against geometry drift between writer and reader.
     */
    void expectU32(std::uint32_t expected, std::string_view what);
    /** Same for u64 values (footprints, table sizes). */
    void expectU64(std::uint64_t expected, std::string_view what);

  private:
    /** Pull `n` payload bytes; throws on exhaustion. */
    const char *take(std::size_t n);
    /** Unread bytes left in the stream (which must be seekable). */
    std::uint64_t bytesLeft();

    std::istream &is;
    SnapshotView *view;      ///< is's buffer, when it is a view
    std::string fingerprint_;
    std::string copy;        ///< section bytes copied from a plain stream
    std::string_view payload;  ///< current section's bytes
    std::size_t cursor = 0;
    std::string tag;         ///< current section's tag
    bool inSection = false;
};

} // namespace vsv

#endif // VSV_SNAPSHOT_SNAPSHOT_HH
