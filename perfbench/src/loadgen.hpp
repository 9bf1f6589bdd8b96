/**
 * @file
 * The open-loop load generator of the serving workloads: one thread
 * submits each request when it is due (Poisson arrivals at a fixed
 * rate) and a second thread collects the answers. Requests are timed
 * from when they were due, so a stall delays the requests behind it.
 *
 * The transport is a pair of callbacks, so the in-process pool and
 * the cluster client share the generator.
 */

#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

#include <deque>
#include <functional>

#include "reqlog.hpp"

namespace perfbench {

class OpenLoop
{
  public:
    /** Submits entry @p e (index @p i); returns false when the request
     *  was refused at once (it is then complete and failed). The entry's
     *  target, if any, is ready. */
    using SubmitFn = std::function<bool(std::size_t i, Entry &e)>;

    /** Entry sample times are microseconds since @p epoch;
     *  @p submit_span names the span recorded around each submit. */
    OpenLoop(std::deque<Entry> &log, RequestGen &gen, Tracer &tracer,
             const char *submit_span, Clock::time_point epoch)
        : log_(log), gen_(gen), tracer_(tracer), submit_span_(submit_span),
          epoch_(epoch)
    {}

    /** The log range [first, last) of one phase. */
    struct Range
    {
        std::size_t first = 0;
        std::size_t last = 0;
        bool aborted = false; ///< stopped early on a runaway backlog
    };

    /**
     * Offers @p n requests at @p rate as Poisson arrivals drawn from
     * @p arrival_seed, then waits until every one of them is answered.
     * With @p max_backlog set, stops offering once more than that many
     * requests were sent after the oldest unanswered one, or once the
     * generator runs more than @p max_late_us behind the schedule: the
     * system is not keeping up, and the rest of the phase would only
     * deepen the queue. @p submit_us, when set, receives the duration
     * of every submit call.
     */
    Range phase(double rate, std::size_t n, std::uint64_t arrival_seed,
                const SubmitFn &submit, std::vector<double> *submit_us,
                std::size_t max_backlog = 0, double max_late_us = 0);

    /** Samples of the log range [first, last). */
    std::vector<Sample> samples(std::size_t first, std::size_t last) const;

  private:
    std::deque<Entry> &log_;
    RequestGen &gen_;
    Tracer &tracer_;
    const char *submit_span_;
    Clock::time_point epoch_;
};

/** Spin-yields until @p e is answered. */
void awaitReady(const Entry &e);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HPP
