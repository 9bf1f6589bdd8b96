/**
 * @file
 * The four workloads. Each fills a Report with its end-to-end metrics,
 * measured on its own generated inputs, and (on a traced run) the
 * per-layer metrics of the layers it exercises.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

/** match-churn (growth = false) and match-growth (growth = true). */
void runMatch(const Options &opt, Report &rep, Tracer &tracer, bool growth);

/** serve-durable: in-process SessionPool with a WAL, then a restart. */
void runServe(const Options &opt, Report &rep, Tracer &tracer);

/** cluster-hop: Router over two forked worker processes. */
void runCluster(const Options &opt, Report &rep, Tracer &tracer);

/** How long the set-up phase of a workload ran, broken into steps;
 *  each is the median over the repeated set-ups of one run. */
struct SetupTimes
{
    std::vector<double> total_s, program_ms, network_ms, pool_ms,
        workers_ms;

    void
    report(Report &rep) const
    {
        rep.e2eMetric("setup_s", median(total_s), "s");
        rep.layerMetric("setup.program_ms", median(program_ms));
        rep.layerMetric("setup.network_ms", median(network_ms));
        rep.layerMetric("setup.pool_ms", median(pool_ms));
        rep.layerMetric("setup.workers_ms", median(workers_ms));
    }
};

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 11;

/** Capacity ladders: rungs 2^(1/8) apart, climbed an octave at a
 *  time and then bisected; each step offers load for kStepSeconds. The
 *  search runs kCapacitySearches times and capacity_rps is the median. */
inline constexpr double kLadderRatio = 1.0905077326652577;
inline constexpr int kLadderStride = 8;
inline constexpr double kStepSeconds = 0.3;
inline constexpr int kCapacitySearches = 3;

/**
 * Runs the capacity search kCapacitySearches times with @p probe and
 * reports capacity_rps (the median) and a note per search. @p begin
 * and @p end, when set, run before and after search k (0-based), so
 * every search can start from the same state.
 */
void measureCapacity(Report &rep, const Ladder &ladder, double limit_us,
                     const std::function<StepVerdict(double)> &probe,
                     const std::function<void(int)> &begin = {},
                     const std::function<void(int)> &end = {});

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
