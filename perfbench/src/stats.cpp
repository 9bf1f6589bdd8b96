#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
tailPercentileFor(std::size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
        // Samples strictly beyond the nearest-rank position.
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
        if (n >= rank && n - rank >= 10)
            return p;
    }
    return 0.0;
}

double
dueLatency(const Sample &s)
{
    return s.ok ? s.done_us - s.due_us : kMissed;
}

double
lateness(const Sample &s)
{
    return std::max(0.0, s.submit_us - s.due_us);
}

std::size_t
backlogAt(const std::vector<Sample> &samples, double t_us)
{
    std::size_t due = 0, done = 0;
    for (const Sample &s : samples) {
        if (s.due_us <= t_us) {
            ++due;
            if (s.ok && s.done_us <= t_us)
                ++done;
        }
    }
    return due - done;
}

LatencySummary
summarize(const std::vector<Sample> &samples)
{
    LatencySummary out;
    out.n = samples.size();
    if (samples.empty())
        return out;
    std::vector<double> lat, late;
    lat.reserve(samples.size());
    late.reserve(samples.size());
    double first_due = samples.front().due_us, last_done = first_due;
    std::size_t ok = 0;
    for (const Sample &s : samples) {
        lat.push_back(dueLatency(s));
        late.push_back(lateness(s));
        first_due = std::min(first_due, s.due_us);
        if (s.ok) {
            ++ok;
            last_done = std::max(last_done, s.done_us);
        } else {
            ++out.failed;
        }
    }
    out.p50_us = percentile(lat, 50.0);
    out.p99_us = percentile(std::move(lat), 99.0);
    out.late_p99_us = percentile(std::move(late), 99.0);
    const double span_s = (last_done - first_due) / 1e6;
    out.achieved_rps = span_s > 0 ? static_cast<double>(ok) / span_s : 0.0;
    return out;
}

WindowedLatency
windowed(const std::vector<Sample> &samples, std::size_t window)
{
    WindowedLatency out;
    std::vector<double> p50s, p99s;
    for (std::size_t first = 0; first < samples.size(); first += window) {
        const std::size_t last = std::min(samples.size(), first + window);
        // A window counts only when its p99 has ten samples beyond it.
        if (tailPercentileFor(last - first) < 99.0)
            break;
        const LatencySummary w = summarize(
            {samples.begin() + static_cast<std::ptrdiff_t>(first),
             samples.begin() + static_cast<std::ptrdiff_t>(last)});
        p50s.push_back(w.p50_us);
        p99s.push_back(w.p99_us);
    }
    out.windows = p50s.size();
    out.p50_us = median(std::move(p50s));
    out.p99_us = median(std::move(p99s));
    return out;
}

StepVerdict
judgeStep(const std::vector<Sample> &samples, double rate,
          double limit_us, std::size_t min_backlog)
{
    StepVerdict v;
    v.rate = rate;
    v.latency = summarize(samples);
    if (samples.empty())
        return v;
    double last_due = 0.0;
    for (const Sample &s : samples)
        last_due = std::max(last_due, s.due_us);
    const double first_due = samples.front().due_us;
    // Mean backlog over each half of the step, sampled at 16 points per
    // half: a transient stall lifts both halves a little, a queue that
    // cannot keep up lifts the second half by far more.
    constexpr int kPoints = 16;
    const double half = (last_due - first_due) / 2;
    double sum[2] = {0, 0};
    for (int h = 0; h < 2; ++h)
        for (int k = 1; k <= kPoints; ++k)
            sum[h] += static_cast<double>(backlogAt(
                samples, first_due + h * half + half * k / kPoints));
    v.backlog_mid = static_cast<std::size_t>(sum[0] / kPoints + 0.5);
    v.backlog_end = static_cast<std::size_t>(sum[1] / kPoints + 0.5);
    const std::size_t slack =
        std::max(min_backlog, samples.size() / 100);
    v.backlog_growing = v.backlog_end > v.backlog_mid + slack;
    v.ok = v.latency.failed == 0 && v.latency.p99_us <= limit_us &&
           !v.backlog_growing;
    return v;
}

double
Ladder::rate(int i) const
{
    return base * std::pow(ratio, i);
}

CapacityResult
findCapacity(const Ladder &ladder,
             const std::function<StepVerdict(double)> &probe, int stride)
{
    CapacityResult out;
    const int top = ladder.steps - 1;
    auto run = [&](int i) {
        out.steps.push_back(probe(ladder.rate(i)));
        return out.steps.back().ok;
    };
    int pass = -1, fail = -1;
    for (int i = 0;; i = std::min(i + stride, top)) {
        if (!run(i)) {
            fail = i;
            break;
        }
        pass = i;
        if (i == top)
            break;
    }
    if (fail < 0) {
        out.at_top = true;
    } else {
        while (fail - pass > 1) {
            const int mid = (pass + fail) / 2;
            if (run(mid))
                pass = mid;
            else
                fail = mid;
        }
    }
    out.index = pass;
    if (pass >= 0) {
        const double want = ladder.rate(pass);
        for (const StepVerdict &v : out.steps)
            if (v.ok && v.rate == want)
                out.capacity_rps = v.latency.achieved_rps;
    }
    return out;
}

} // namespace perfbench
