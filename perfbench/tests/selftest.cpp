/**
 * @file
 * Tests of the benchmark's own arithmetic (src/stats.cpp and the span
 * self-time computation), on synthetic samples.
 *
 *   python3 perfbench/run.py --selftest
 *
 * Exits 0 when every check passes and prints each failure otherwise.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;
int checks = 0;

void
check(bool ok, const std::string &what)
{
    ++checks;
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool
near(double a, double b, double eps = 1e-9)
{
    return std::fabs(a - b) <= eps;
}

/** Evenly spaced requests at @p rate (req/s), each served in
 *  @p service_us once due, with no queueing. */
std::vector<Sample>
steady(double rate, std::size_t n, double service_us)
{
    std::vector<Sample> out;
    for (std::size_t i = 0; i < n; ++i) {
        const double due = static_cast<double>(i) * 1e6 / rate;
        out.push_back({due, due, due + service_us, true});
    }
    return out;
}

/** A single server that needs @p service_us per request, offered
 *  evenly spaced requests at @p rate: the queue it builds up. */
std::vector<Sample>
queued(double rate, std::size_t n, double service_us)
{
    std::vector<Sample> out;
    double free_at = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double due = static_cast<double>(i) * 1e6 / rate;
        const double start = std::max(due, free_at);
        free_at = start + service_us;
        out.push_back({due, due, free_at, true});
    }
    return out;
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    check(near(percentile(v, 50), 50), "p50 of 1..100 is 50");
    check(near(percentile(v, 99), 99), "p99 of 1..100 is 99");
    check(near(percentile(v, 100), 100), "p100 is the max");
    check(near(percentile(v, 0), 1), "p0 is the min");
    check(near(percentile({}, 50), 0), "empty sample gives 0");
    check(near(percentile({7, 3, 5}, 50), 5), "unsorted input is sorted");
    check(near(median({4, 1, 3, 2}), 2), "median is the nearest rank");
    std::vector<double> miss = {1, 2, kMissed};
    check(std::isinf(percentile(miss, 99)),
          "a missed request lands beyond every finite limit");
}

void
testTailRule()
{
    // The highest percentile with at least ten samples beyond it.
    check(near(tailPercentileFor(10000), 99.9), "10000 samples: p99.9");
    check(near(tailPercentileFor(9999), 99), "9999 samples: only 9 beyond "
                                             "p99.9, so p99");
    check(near(tailPercentileFor(1000), 99), "1000 samples: p99");
    check(near(tailPercentileFor(999), 95), "999 samples: 9 beyond p99");
    check(near(tailPercentileFor(200), 95), "200 samples: p95");
    check(near(tailPercentileFor(100), 90), "100 samples: p90");
    check(near(tailPercentileFor(20), 50), "20 samples: p50");
    check(near(tailPercentileFor(19), 0), "19 samples: nothing qualifies");
}

void
testDueLatency()
{
    // Due at 100, submitted 30 late, answered 50 after submit.
    const Sample s{100, 130, 180, true};
    check(near(dueLatency(s), 80), "due latency counts the generator delay");
    check(near(lateness(s), 30), "lateness is submit - due");
    check(near(lateness({100, 90, 120, true}), 0),
          "an early submit is not negative lateness");
    check(std::isinf(dueLatency({0, 0, 5, false})),
          "a failed request misses every limit");

    // A stall delays everything behind it: the open-loop view.
    std::vector<Sample> v = steady(1000, 100, 50);
    v[10].done_us += 5000;
    const LatencySummary sum = summarize(v);
    check(sum.n == 100 && sum.failed == 0, "summary counts");
    check(near(sum.p50_us, 50), "p50 of a steady run is the service time");
    check(near(sum.p99_us, 50), "one slow request is beyond p99 of 100");
    check(near(sum.late_p99_us, 0), "an on-time generator is never late");
}

void
testWindowed()
{
    // 10 windows of 1000; one window holds a 5 ms stall for 30% of its
    // requests. The whole-phase p99 sees the stall, the median of the
    // window p99s does not.
    std::vector<Sample> v = steady(1000, 10000, 100);
    for (std::size_t i = 3000; i < 3300; ++i)
        v[i].done_us += 5000;
    const WindowedLatency w = windowed(v, 1000);
    check(w.windows == 10, "ten full windows");
    check(near(w.p99_us, 100), "the median window p99 ignores one stall");
    check(summarize(v).p99_us > 5000, "the whole-phase p99 does not");
    check(windowed(steady(1000, 2999, 10), 1000).windows == 2,
          "a final window with 9 samples beyond p99 is dropped");
    check(windowed(steady(1000, 3000, 10), 1000).windows == 3,
          "a final window with 10 beyond p99 is kept");
    check(windowed(steady(1000, 500, 10), 1000).windows == 0,
          "no window qualifies below 1000 samples");
}

void
testBacklog()
{
    const std::vector<Sample> v = queued(1000, 100, 2000);
    // At t = 50 ms, 51 requests are due and the server finished 25.
    check(backlogAt(v, 50000) == 26, "backlog is due minus done");
    std::vector<Sample> f = steady(1000, 10, 10);
    f[3].ok = false;
    check(backlogAt(f, 1e9) == 1, "a failed request never completes");
}

void
testCapacityRule()
{
    // Keeping up: service 500 us at 1000 req/s.
    StepVerdict ok = judgeStep(queued(1000, 2000, 500), 1000, 2000);
    check(ok.ok && !ok.backlog_growing, "a server keeping up passes");

    // Over capacity: service 1200 us at 1000 req/s grows a backlog.
    StepVerdict over = judgeStep(queued(1000, 2000, 1200), 1000, 1e12);
    check(over.backlog_growing && !over.ok,
          "a growing backlog fails even with no latency limit");

    // Latency limit alone.
    StepVerdict slow = judgeStep(steady(1000, 2000, 3000), 1000, 2000);
    check(!slow.backlog_growing && !slow.ok,
          "p99 over the limit fails without backlog growth");

    // One failure fails the step.
    std::vector<Sample> v = steady(1000, 2000, 100);
    v[1500].ok = false;
    StepVerdict failed = judgeStep(v, 1000, 2000);
    check(!failed.ok && failed.latency.failed == 1,
          "a single failed request fails the step");

    // The ladder search: capacity 1 / 400 us = 2500 req/s.
    const Ladder ladder{500.0, 1.189207115, 16};
    auto probe = [](double rate) {
        return judgeStep(queued(rate, 2000, 400), rate, 5000);
    };
    const CapacityResult cap = findCapacity(ladder, probe);
    check(cap.index >= 0 && !cap.at_top, "capacity sits inside the ladder");
    check(ladder.rate(cap.index) <= 2500 &&
              ladder.rate(cap.index + 1) > 2500 * 0.98,
          "capacity is the highest passing rung below the true capacity");
    check(cap.capacity_rps > 0.9 * ladder.rate(cap.index) &&
              cap.capacity_rps < 1.1 * ladder.rate(cap.index),
          "reported capacity is the achieved rate at that rung");
    check(cap.steps.size() <= 8, "the search climbs then bisects");

    const CapacityResult none = findCapacity(ladder, [](double rate) {
        return judgeStep(queued(rate, 2000, 1e4), rate, 5000);
    });
    check(none.index == -1, "no passing rung is reported as none");
    const CapacityResult top = findCapacity(ladder, [](double rate) {
        return judgeStep(queued(rate, 2000, 1), rate, 5000);
    });
    check(top.at_top && top.index == ladder.steps - 1,
          "passing the top rung is flagged");
}

void
testFailureCounting()
{
    Tally t;
    t.attempted = 100;
    t.rejected = 2;
    t.expired = 3;
    t.errors = 4;
    t.mismatches = 1;
    check(t.failed() == 10, "failed sums every cause");

    std::vector<Sample> v = steady(1000, 10, 10);
    v[2].ok = false;
    v[7].ok = false;
    check(summarize(v).failed == 2, "summary counts failed samples");
}

void
testSelfTime()
{
    Tracer tr(true);
    const Clock::time_point t0 = Clock::now();
    auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
    const std::uint32_t parent = tr.record("parent", at(0), at(100));
    tr.record("child", at(10), at(40), parent);
    tr.record("child", at(30), at(60), parent); // overlaps the first
    tr.record("child", at(90), at(120), parent); // runs past the parent
    const auto st = tr.selfTimes();
    check(near(st.at("parent").total_ms, 0.1, 1e-6), "parent total");
    // Children cover [10, 60) and [90, 100) of the parent: 60 us.
    check(near(st.at("parent").self_ms, 0.04, 1e-6),
          "self time subtracts the union of child intervals");
    check(st.at("child").count == 3, "spans are counted per name");
    Tracer off(false);
    check(off.record("x", at(0), at(1)) == 0 && off.size() == 0,
          "a disabled tracer records nothing");
}

} // namespace

int
main()
{
    testPercentile();
    testTailRule();
    testDueLatency();
    testWindowed();
    testBacklog();
    testCapacityRule();
    testFailureCounting();
    testSelfTime();
    std::printf("%d checks, %d failed\n", checks, failures);
    return failures == 0 ? 0 : 1;
}
