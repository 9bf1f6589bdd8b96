#include "reqlog.hpp"

#include <cstdio>
#include <unordered_map>

#include "core/engine.hpp"
#include "serve/session.hpp"
#include "workloads/generator.hpp"

namespace perfbench {

std::vector<Template>
makeTemplates(const psm::workloads::SystemPreset &preset,
              const psm::ops5::Program &program, std::uint64_t seed,
              std::size_t n)
{
    psm::ops5::WorkingMemory wm;
    psm::workloads::ChangeStream stream(program, wm, preset.config,
                                        seed);
    std::vector<Template> out;
    out.reserve(n);
    for (const psm::ops5::WmeChange &c :
         stream.nextBatch(static_cast<int>(n), 0.0)) {
        Template t;
        t.cls = c.wme->className();
        for (int i = 0; i < c.wme->fieldCount(); ++i)
            t.fields.push_back(c.wme->field(i));
        out.push_back(std::move(t));
    }
    return out;
}

std::string
mixNote()
{
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "run(%llu cycle) %.2f%%, retract %.2f%%, assert the rest; "
                  "retract targets are >= %llu session requests old, at most "
                  "%zu open asserts per session",
                  static_cast<unsigned long long>(kRunCycles), kRunShare * 100,
                  kRetractShare * 100,
                  static_cast<unsigned long long>(kRetractLag),
                  kMaxOpenAsserts);
    return buf;
}

RequestGen::RequestGen(std::size_t n_templates, std::size_t n_sessions,
                       std::uint64_t seed)
    : n_templates_(n_templates), rng_(seed), count_(n_sessions),
      open_(n_sessions)
{}

void
RequestGen::next(std::int64_t index, Entry &e)
{
    const auto session =
        static_cast<std::uint32_t>(rng_() % count_.size());
    const std::uint64_t pos = count_[session]++;
    const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    e.session = session;
    if (u < kRunShare) {
        e.kind = RequestKind::Run;
        e.run_cycles = kRunCycles;
        return;
    }
    auto &open = open_[session];
    if (u < kRunShare + kRetractShare || open.size() >= kMaxOpenAsserts) {
        // Eligible targets: the oldest open asserts at least
        // kRetractLag requests back in this session.
        std::size_t eligible = 0;
        while (eligible < open.size() && eligible < 16 &&
               open[eligible].pos + kRetractLag <= pos)
            ++eligible;
        if (eligible > 0) {
            const std::size_t k = rng_() % eligible;
            e.kind = RequestKind::Retract;
            e.target = open[k].index;
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
            return;
        }
    }
    e.kind = RequestKind::Assert;
    e.tmpl = static_cast<std::uint32_t>(rng_() % n_templates_);
    open.push_back({index, pos});
}

namespace {

bool
executed(const Entry &e)
{
    return e.sample.ok && !e.expired && !e.error;
}

} // namespace

void
countFailures(const std::deque<Entry> &log, Tally &tally)
{
    for (const Entry &e : log) {
        if (e.error)
            ++tally.errors;
        else if (e.expired)
            ++tally.expired;
        else if (!e.sample.ok)
            ++tally.rejected;
    }
}

OracleRun
replayLog(const std::shared_ptr<const psm::ops5::Program> &program,
          const std::deque<Entry> &log, const std::vector<LogRange> &ranges,
          std::size_t n_sessions, const std::vector<Template> &templates,
          Report &rep, const char *label)
{
    std::vector<std::unique_ptr<psm::core::Matcher>> matchers;
    std::vector<std::unique_ptr<psm::core::Engine>> engines;
    for (std::size_t s = 0; s < n_sessions; ++s) {
        matchers.push_back(psm::serve::makeMatcher(program, {}));
        engines.push_back(
            std::make_unique<psm::core::Engine>(program, *matchers.back()));
        engines.back()->loadInitialWorkingMemory();
    }

    int reported = 0;
    auto mismatch = [&](std::size_t i, const char *what) {
        if (reported++ < 5)
            rep.fail(std::string(label) + ": request " + std::to_string(i) +
                     " " + what);
        else
            ++rep.tally.mismatches;
    };

    OracleRun out;
    // The engine's time tag for each assert entry, by log index.
    std::unordered_map<std::size_t, psm::ops5::TimeTag> tags;
    for (std::size_t r = 0; r < ranges.size(); ++r) {
        for (std::size_t i = ranges[r].first; i < ranges[r].second; ++i) {
            const Entry &e = log[i];
            if (!executed(e))
                continue;
            psm::core::Engine &eng = *engines[e.session];
            switch (e.kind) {
              case RequestKind::Assert: {
                const Template &t = templates[e.tmpl];
                const psm::ops5::TimeTag tag =
                    eng.assertWme(t.cls, t.fields)->timeTag();
                tags[i] = tag;
                if (tag != e.tag)
                    mismatch(i, "assert answered a different time tag");
                break;
              }
              case RequestKind::Retract: {
                const auto it = tags.find(static_cast<std::size_t>(e.target));
                const psm::ops5::Wme *w =
                    it == tags.end()
                        ? nullptr
                        : eng.workingMemory().findByTag(it->second);
                const bool done = w != nullptr && eng.retractWme(w);
                if (done != e.retracted)
                    mismatch(i, done ? "retract answered false, oracle true"
                                     : "retract answered true, oracle false");
                break;
              }
              case RequestKind::Run: {
                if (eng.run(e.run_cycles).firings != e.firings)
                    mismatch(i, "run fired a different number of rules");
                break;
              }
            }
        }
        if (r == 0)
            for (auto &eng : engines)
                out.at_first.push_back(imageOf(*eng));
    }
    for (auto &eng : engines)
        out.images.push_back(imageOf(*eng));
    return out;
}

} // namespace perfbench
