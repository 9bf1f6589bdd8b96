/**
 * @file
 * The request stream of the serving workloads and its oracle.
 *
 * RequestGen draws a deterministic stream from the seed: which session,
 * which kind (assert / retract / run), which WME template, and which
 * earlier assert a retract targets. A retract only ever targets an
 * assert at least kRetractLag requests older in the same session, so
 * the stream never depends on timing. Each request becomes an Entry in
 * the log, which also records what the system answered.
 *
 * The oracle feeds each session's entries, in order, to a fresh
 * core::Engine and checks every answer (assert tag, retract outcome,
 * run firings) and the final working memory and conflict set.
 */

#ifndef PERFBENCH_REQLOG_HPP
#define PERFBENCH_REQLOG_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/request.hpp"

namespace perfbench {

using psm::serve::RequestKind;

/** One WME an assert request carries. */
struct Template
{
    psm::ops5::SymbolId cls{};
    std::vector<psm::ops5::Value> fields;
};

/** @p n WME templates drawn from @p preset's generator. */
std::vector<Template>
makeTemplates(const psm::workloads::SystemPreset &preset,
              const psm::ops5::Program &program, std::uint64_t seed,
              std::size_t n);

/** One request: its generated inputs and the answer observed. */
struct Entry
{
    // Inputs (fixed by the seed).
    std::uint32_t session = 0;
    RequestKind kind = RequestKind::Assert;
    std::uint32_t tmpl = 0;
    std::int64_t target = -1; ///< retract: index of the assert entry
    std::uint64_t run_cycles = 0;

    // Observed (written by whoever collects the answer).
    Sample sample;
    bool expired = false;
    bool error = false;
    psm::ops5::TimeTag tag = 0;
    const psm::ops5::Wme *wme = nullptr;
    /** Which incarnation of the server answered (pointer handles do
     *  not survive a restart; time tags do). */
    std::uint32_t generation = 0;
    bool retracted = false;
    std::uint64_t firings = 0;
    /** Set (release) once the answer fields above are final. */
    std::atomic<bool> ready{false};
};

/** Request mix and retract policy. A session holds at most
 *  kMaxOpenAsserts asserted elements the stream has not yet retracted;
 *  past that, the next assert slot becomes a retract of the oldest. */
inline constexpr double kRunShare = 0.005;
inline constexpr double kRetractShare = 0.4975;
inline constexpr std::uint64_t kRunCycles = 1;
inline constexpr std::uint64_t kRetractLag = 16;
inline constexpr std::size_t kMaxOpenAsserts = 24;

/** The request mix above, as one line for the report. */
std::string mixNote();

class RequestGen
{
  public:
    RequestGen(std::size_t n_templates, std::size_t n_sessions,
               std::uint64_t seed);

    /** Fills the input fields of the next entry, whose log index is
     *  @p index. */
    void next(std::int64_t index, Entry &e);

  private:
    struct Open
    {
        std::int64_t index;
        std::uint64_t pos;
    };
    std::size_t n_templates_;
    std::mt19937_64 rng_;
    std::vector<std::uint64_t> count_;
    std::vector<std::deque<Open>> open_;
};

/** Adds the log's failed requests to @p tally by cause: refused at
 *  submit, expired, or errored/lost. */
void countFailures(const std::deque<Entry> &log, Tally &tally);

/** Oracle replay of one request log. */
struct OracleRun
{
    std::vector<EngineImage> images;  ///< per session, at the end
    std::vector<EngineImage> at_first; ///< per session, after range 0
};

/** A half-open range [first, last) of log indices. */
using LogRange = std::pair<std::size_t, std::size_t>;

/**
 * Feeds the log entries of @p ranges, in order, session by session to
 * fresh serial engines (the matcher serve sessions run by default),
 * checking every observed answer (a mismatch calls rep.fail).
 */
OracleRun
replayLog(const std::shared_ptr<const psm::ops5::Program> &program,
          const std::deque<Entry> &log, const std::vector<LogRange> &ranges,
          std::size_t n_sessions, const std::vector<Template> &templates,
          Report &rep, const char *label);

} // namespace perfbench

#endif // PERFBENCH_REQLOG_HPP
