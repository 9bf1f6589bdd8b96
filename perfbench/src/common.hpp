/**
 * @file
 * What every workload shares: run options, the report it fills in,
 * host stamping, and the matcher-level helpers (batch schedules, a
 * timing decorator around core::Matcher, conflict-set comparison).
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/matcher.hpp"
#include "ops5/production.hpp"
#include "ops5/wme.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads/presets.hpp"

namespace psm::core {
class Engine;
}

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for durable state and trace files. */
    std::string out_dir = ".";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run reports. */
struct Report
{
    std::vector<Metric> e2e;
    std::vector<Metric> layer;
    std::vector<std::pair<std::string, std::string>> notes;
    std::vector<std::string> check_failures;
    Tally tally;

    void e2eMetric(const std::string &name, double v, const std::string &unit)
    {
        e2e.push_back({name, v, unit});
    }
    void layerMetric(const std::string &name, double v)
    {
        layer.push_back({name, v, ""});
    }
    void note(const std::string &key, const std::string &value)
    {
        notes.emplace_back(key, value);
    }
    /** A correctness check failed: counts one failed operation. */
    void fail(const std::string &what)
    {
        ++tally.mismatches;
        check_failures.push_back(what);
    }
};

/** Seconds, milliseconds and microseconds between two instants. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/** Peak resident set of this process plus the live children listed
 *  (their /proc VmHWM), in MiB. */
double peakRssMb(const std::vector<int> &child_pids = {});

/** Filesystem type of @p path ("ext4", "tmpfs", ...). */
std::string filesystemOf(const std::string &path);

/** Host and build stamp lines (nproc, compiler, build type, ...). */
std::vector<std::pair<std::string, std::string>> hostStamp();

/** True when this binary was compiled with optimisation and without
 *  sanitizers — the only builds whose numbers may be reported. */
bool buildIsMeasurable(std::string &why_not);

// ----- matcher-level helpers ------------------------------------------

/** A pre-generated batch schedule over one generated program. */
struct Schedule
{
    std::shared_ptr<const psm::ops5::Program> program;
    std::unique_ptr<psm::ops5::WorkingMemory> wm;
    std::vector<std::vector<psm::ops5::WmeChange>> batches;
    std::uint64_t changes = 0;
};

/** Generates @p preset's program (its own calibrated seed). */
std::shared_ptr<const psm::ops5::Program>
makeProgram(const psm::workloads::SystemPreset &preset);

/** A change stream of @p n_batches batches drawn from @p seed. */
Schedule makeSchedule(const psm::workloads::SystemPreset &preset,
                      std::shared_ptr<const psm::ops5::Program> program,
                      std::uint64_t seed, int n_batches,
                      double remove_fraction);

/**
 * Forwards to a matcher and times each processChanges() call, from
 * outside the layer: per-batch durations when @p batch_us is set and
 * one span per call when the tracer is on.
 */
class TimedMatcher : public psm::core::Matcher
{
  public:
    TimedMatcher(psm::core::Matcher &inner, Tracer &tracer,
                 const char *span, std::vector<double> *batch_us)
        : inner_(inner), tracer_(tracer), span_(span), batch_us_(batch_us)
    {}

    void processChanges(std::span<const psm::ops5::WmeChange> c) override;

    psm::ops5::ConflictSet &conflictSet() override
    {
        return inner_.conflictSet();
    }
    const psm::ops5::ConflictSet &conflictSet() const override
    {
        return inner_.conflictSet();
    }
    psm::core::MatchStats stats() const override { return inner_.stats(); }
    std::string name() const override { return inner_.name(); }

  private:
    psm::core::Matcher &inner_;
    Tracer &tracer_;
    const char *span_;
    std::vector<double> *batch_us_;
};

/** Sorted instantiation keys of a conflict set, for equality checks. */
std::vector<std::pair<int, std::vector<psm::ops5::TimeTag>>>
conflictKeys(const psm::ops5::ConflictSet &cs);

/** Working memory as sorted (tag, rendered contents) pairs. */
std::vector<std::pair<psm::ops5::TimeTag, std::string>>
wmImage(const psm::ops5::WorkingMemory &wm,
        const psm::ops5::Program &program);

/** One engine's observable state: working memory + conflict set. */
struct EngineImage
{
    std::vector<std::pair<psm::ops5::TimeTag, std::string>> wm;
    std::vector<std::pair<int, std::vector<psm::ops5::TimeTag>>> cs;

    bool operator==(const EngineImage &) const = default;
};

EngineImage imageOf(psm::core::Engine &engine);

/** Fails one check per session whose image differs from @p want. */
void compareImages(const std::vector<EngineImage> &got,
                   const std::vector<EngineImage> &want,
                   const std::string &what, Report &rep);

/** num / den, or 0 when den is 0. */
inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Writes a timestamped progress line to stderr. */
void progress(const std::string &what);

/** Sleeps until @p t, spinning for the last stretch so due times are
 *  met to a few microseconds. */
void waitUntil(Clock::time_point t);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
