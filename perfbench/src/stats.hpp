/**
 * @file
 * The benchmark's own arithmetic: percentiles, open-loop latency,
 * backlog, the capacity rule and failure counting. Everything here is
 * pure (no clocks, no threads) so tests/selftest.cpp can drive it with
 * synthetic samples.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** Latency of a request that failed, was rejected or expired: it
 *  misses every limit. */
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/** Nearest-rank percentile (@p p in [0,100]) of an unsorted sample;
 *  0 for an empty one. */
double percentile(std::vector<double> values, double p);

/** Median of an unsorted sample; 0 for an empty one. */
double median(std::vector<double> values);

/**
 * Repeated runs of one identical short operation (a restore) on a
 * shared host: the fastest decile of its times estimates its cost
 * without the interference from other work in the slower runs.
 */
inline constexpr double kFastTimePct = 10.0;

/**
 * The highest of 99.9, 99, 95, 90 and 50 that has at least ten
 * samples beyond it in a sample of @p n, or 0 when even the median
 * has fewer than ten beyond it.
 */
double tailPercentileFor(std::size_t n);

/**
 * One open-loop request. Times are microseconds from the start of the
 * phase: when the request was due, when the generator actually
 * submitted it, and when its response was complete.
 */
struct Sample
{
    double due_us = 0.0;
    double submit_us = 0.0;
    double done_us = 0.0;
    bool ok = true; ///< false: rejected, expired, errored or lost
};

/** Due-to-response latency; kMissed for a failed request. */
double dueLatency(const Sample &s);

/** How late the generator submitted the request (never negative). */
double lateness(const Sample &s);

/** Requests due by @p t_us that have not completed by then; failed
 *  requests never complete. */
std::size_t backlogAt(const std::vector<Sample> &samples, double t_us);

/** Summary of one open-loop phase. */
struct LatencySummary
{
    std::size_t n = 0;
    std::size_t failed = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double late_p99_us = 0.0;
    /** Achieved completion rate: ok requests over the span from the
     *  first due time to the last completion. */
    double achieved_rps = 0.0;
};

LatencySummary summarize(const std::vector<Sample> &samples);

/** p50 and p99 per window of @p window consecutive samples, and their
 *  medians over the windows. A window counts only when it has at least
 *  ten samples beyond its p99 (so a short final window is dropped). A
 *  stall inflates the windows it falls in, not the whole phase. */
struct WindowedLatency
{
    std::size_t windows = 0;
    double p50_us = 0.0; ///< median over windows of the window p50
    double p99_us = 0.0; ///< median over windows of the window p99
};

WindowedLatency windowed(const std::vector<Sample> &samples,
                         std::size_t window);

/** Verdict of one rate step under the capacity rule. */
struct StepVerdict
{
    double rate = 0.0;      ///< offered rate (req/s)
    LatencySummary latency;
    std::size_t backlog_mid = 0; ///< mean backlog over the first half
    std::size_t backlog_end = 0; ///< mean backlog over the second half
    bool backlog_growing = false;
    bool aborted = false; ///< load stopped early: clearly over capacity
    bool ok = false;
};

/**
 * Applies the capacity rule to one step: p99 within @p limit_us, no
 * failed request, and a backlog that does not grow: its mean over the
 * second half of the step may exceed its mean over the first half by
 * at most max(@p min_backlog, 1% of the step's requests), which
 * absorbs the jitter of a queue that is keeping up.
 */
StepVerdict judgeStep(const std::vector<Sample> &samples, double rate,
                      double limit_us, std::size_t min_backlog = 8);

/** A fixed geometric ladder of offered rates. */
struct Ladder
{
    double base = 1000.0;
    double ratio = 1.2;
    int steps = 16;

    double rate(int i) const;
};

/** Outcome of a capacity search. */
struct CapacityResult
{
    int index = -1;           ///< highest passing ladder index, -1: none
    double capacity_rps = 0.0; ///< achieved rate at that step
    bool at_top = false;       ///< the top of the ladder passed
    std::vector<StepVerdict> steps; ///< every step tried, in order
};

/**
 * Finds the highest passing ladder rate, assuming pass/fail is
 * monotone in the rate: climbs in strides of @p stride rungs until a
 * step fails, then bisects the rungs between the last pass and that
 * failure. @p probe runs one step at the given rate.
 */
CapacityResult
findCapacity(const Ladder &ladder,
             const std::function<StepVerdict(double)> &probe,
             int stride = 4);

/** Attempted/failed operation counts by cause. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    std::uint64_t errors = 0;     ///< routed errors, transport loss
    std::uint64_t mismatches = 0; ///< outputs that failed a check

    std::uint64_t
    failed() const
    {
        return rejected + expired + errors + mismatches;
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
