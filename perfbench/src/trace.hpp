/**
 * @file
 * Span recording for the traced run. The benchmark records one span
 * around each call it makes into a layer (name, start, end, parent
 * span and request id), keeps them in memory and writes them out as a
 * Chrome trace when the run ends. A disabled tracer records nothing
 * and costs one branch per call site.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds of @p t since the process-wide trace epoch. */
std::int64_t traceNs(Clock::time_point t);

struct Span
{
    std::uint32_t name = 0;
    std::uint32_t parent = 0; ///< span id (1-based), 0 = root
    std::uint64_t req = 0;    ///< request id, 0 = none
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
};

/** Aggregate of all spans of one name. */
struct SelfTime
{
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0; ///< total minus the time children cover
};

class Tracer
{
  public:
    /** At most @p cap spans are kept; the rest are counted as
     *  dropped. */
    explicit Tracer(bool enabled, std::size_t cap = 300'000);

    bool enabled() const { return enabled_; }

    /** Records a finished span; returns its id (0 when disabled or
     *  dropped). Thread-safe. */
    std::uint32_t record(const char *name, Clock::time_point t0,
                         Clock::time_point t1, std::uint32_t parent = 0,
                         std::uint64_t req = 0);

    /** Opens a span whose end is set later with close(); children
     *  recorded in between can name it as their parent. */
    std::uint32_t open(const char *name, Clock::time_point t0,
                       std::uint32_t parent = 0);
    void close(std::uint32_t id, Clock::time_point t1);

    std::size_t size() const;
    std::uint64_t dropped() const { return dropped_; }

    /** Self time per span name. */
    std::map<std::string, SelfTime> selfTimes() const;

    /** Writes every span as a Chrome trace ("X" events, one track
     *  per parentless span name). False on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

  private:
    std::uint32_t nameId(const char *name);

    bool enabled_;
    std::size_t cap_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> name_ids_;
    std::uint64_t dropped_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
