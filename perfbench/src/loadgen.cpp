#include "loadgen.hpp"

#include <thread>

namespace perfbench {

void
awaitReady(const Entry &e)
{
    while (!e.ready.load(std::memory_order_acquire))
        std::this_thread::yield();
}

OpenLoop::Range
OpenLoop::phase(double rate, std::size_t n, std::uint64_t arrival_seed,
                const SubmitFn &submit, std::vector<double> *submit_us,
                std::size_t max_backlog, double max_late_us)
{
    std::mt19937_64 rng(arrival_seed);
    std::exponential_distribution<double> gap(rate);
    const std::size_t first = log_.size();
    const Clock::time_point t0 =
        Clock::now() + std::chrono::microseconds(500);
    // Every submit span of the phase hangs under one phase span.
    const std::uint32_t phase_span = tracer_.open("load.phase", t0);
    double due_s = 0.0;
    Range out;
    out.first = first;
    std::size_t oldest = first;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = log_.size();
        if (max_backlog != 0) {
            while (oldest < i &&
                   log_[oldest].ready.load(std::memory_order_acquire))
                ++oldest;
            if (i - oldest > max_backlog) {
                out.aborted = true;
                break;
            }
        }
        Entry &e = log_.emplace_back();
        gen_.next(static_cast<std::int64_t>(i), e);
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due_s));
        e.sample.due_us = usBetween(epoch_, due);
        waitUntil(due);
        if (e.target >= 0)
            awaitReady(log_[static_cast<std::size_t>(e.target)]);
        const Clock::time_point s0 = Clock::now();
        e.sample.submit_us = usBetween(epoch_, s0);
        if (max_late_us > 0 && usBetween(due, s0) > max_late_us) {
            // Not sent: drop the entry again and stop the phase.
            log_.pop_back();
            out.aborted = true;
            break;
        }
        const bool admitted = submit(i, e);
        const Clock::time_point s1 = Clock::now();
        if (submit_us)
            submit_us->push_back(usBetween(s0, s1));
        tracer_.record(submit_span_, s0, s1, phase_span, i + 1);
        if (!admitted) {
            e.sample.ok = false;
            e.ready.store(true, std::memory_order_release);
        }
        due_s += gap(rng);
    }
    for (std::size_t i = first; i < log_.size(); ++i)
        awaitReady(log_[i]);
    tracer_.close(phase_span, Clock::now());
    out.last = log_.size();
    return out;
}

std::vector<Sample>
OpenLoop::samples(std::size_t first, std::size_t last) const
{
    std::vector<Sample> out;
    out.reserve(last - first);
    for (std::size_t i = first; i < last; ++i)
        out.push_back(log_[i].sample);
    return out;
}

} // namespace perfbench
