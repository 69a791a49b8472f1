/**
 * @file
 * Compares two metrics snapshots and flags counter regressions.
 *
 * Inputs are either bare snapshot files (metrics::writeSnapshotFile /
 * --metrics-out) or BENCH_*.json artifacts, whose snapshot lives under
 * the top-level "metrics" key — the tool auto-detects which.  Counters
 * and gauges are compared name by name; a *regression* is a counted
 * quantity that grew by more than --threshold relative to the old run
 * (more state copies, more aborts, more compares for the same work).
 * Timing-derived values (the histograms) vary run to run on a shared
 * host, so they are printed for context but never gated.
 *
 * Usage:
 *   metrics_diff OLD.json NEW.json [--threshold=0.1]
 *                [--fail-on-regression] [--csv]
 *                [--require=name,name,...]
 *
 * --require names metrics (counters, gauges, or histograms) that must
 * be present in the NEW snapshot — CI uses it to catch the accidental
 * removal of an instrumented code path (e.g. the serving queue
 * highwater gauge or the flight-recorder dump counter): a metric that
 * silently stops being emitted would otherwise just vanish from the
 * diff.
 *
 * Exit status: 0 normally; 1 when --fail-on-regression was given and
 * at least one counter regressed beyond the threshold, or when a
 * --require'd metric is absent from NEW.
 */

#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/json.h"
#include "util/log.h"
#include "util/table.h"

using repro::util::formatDouble;
using repro::util::JsonValue;
using repro::util::Table;

namespace {

/** Snapshot halves relevant to the diff: name → numeric value. */
struct FlatSnapshot
{
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, double> histogramCounts; //!< name → count.
};

/** The "metrics" object of a BENCH_*.json, or the document itself
 *  when it already is a bare snapshot. */
const JsonValue &
snapshotRoot(const JsonValue &doc, const std::string &path)
{
    if (doc.find("counters"))
        return doc;
    if (const JsonValue *metrics = doc.find("metrics")) {
        if (metrics->find("counters"))
            return *metrics;
    }
    repro::util::fatal(path +
                       ": neither a metrics snapshot (no \"counters\" "
                       "key) nor a BENCH artifact with one under "
                       "\"metrics\"");
}

void
loadSection(const JsonValue &root, const char *key,
            std::map<std::string, double> &out)
{
    const JsonValue *section = root.find(key);
    if (!section || !section->isObject())
        return;
    for (const auto &[name, value] : section->object()) {
        if (value.isNumber())
            out.emplace(name, value.asNumber());
    }
}

FlatSnapshot
load(const std::string &path)
{
    JsonValue doc;
    try {
        doc = JsonValue::parseFile(path);
    } catch (const std::exception &e) {
        repro::util::fatal(std::string("cannot read ") + path + ": " +
                           e.what());
    }
    const JsonValue &root = snapshotRoot(doc, path);
    FlatSnapshot snap;
    loadSection(root, "counters", snap.counters);
    loadSection(root, "gauges", snap.gauges);
    if (const JsonValue *hists = root.find("histograms");
        hists && hists->isObject()) {
        for (const auto &[name, value] : hists->object()) {
            if (const JsonValue *count = value.find("count");
                count && count->isNumber())
                snap.histogramCounts.emplace(name, count->asNumber());
        }
    }
    return snap;
}

/**
 * Synthesizes the derived state-sharing ratio when the snapshot
 * carries the copy-on-write state counters:
 * blocks_copied / (blocks_copied + blocks_shared) — the fraction of
 * clone-and-write traffic that physically moved blocks (lower is
 * better; 1.0 is the deep-copy regime).  Placed among the counters so
 * the regression gate applies: a grown ratio means speculative
 * versions stopped sharing, which is a perf regression even when the
 * raw counters moved with workload size.
 */
void
addDerivedRatios(FlatSnapshot &snap)
{
    const auto copied = snap.counters.find("state.blocks_copied");
    const auto shared = snap.counters.find("state.blocks_shared");
    if (copied == snap.counters.end() || shared == snap.counters.end())
        return;
    const double total = copied->second + shared->second;
    if (total <= 0.0)
        return;
    snap.counters.emplace("state.sharing_ratio",
                          copied->second / total);
}

/** Relative growth of @p now over @p then; 0 when both are zero. */
double
relativeDelta(double then, double now)
{
    if (then == 0.0)
        return now == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    return (now - then) / then;
}

std::string
formatDelta(double delta)
{
    if (std::isinf(delta))
        return "new";
    std::string out = delta >= 0 ? "+" : "";
    out += formatDouble(delta * 100.0, 1);
    out += '%';
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const repro::util::Cli cli(argc, argv);
    const auto &positional = cli.positional();
    if (positional.size() != 2) {
        std::cerr << "usage: metrics_diff OLD.json NEW.json"
                     " [--threshold=0.1] [--fail-on-regression] [--csv]\n";
        return 2;
    }
    const double threshold = cli.getDouble("threshold", 0.1);
    const bool fail_on_regression =
        cli.getBool("fail-on-regression", false);
    const bool csv = cli.getBool("csv", false);
    const std::string require = cli.getString("require", "");

    FlatSnapshot before = load(positional[0]);
    FlatSnapshot after = load(positional[1]);

    std::vector<std::string> missing;
    for (std::size_t pos = 0; pos < require.size();) {
        std::size_t comma = require.find(',', pos);
        if (comma == std::string::npos)
            comma = require.size();
        const std::string name = require.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (!after.counters.count(name) && !after.gauges.count(name) &&
            !after.histogramCounts.count(name))
            missing.push_back(name);
    }
    if (!missing.empty()) {
        std::cerr << "required metric(s) absent from "
                  << positional[1] << ":";
        for (const std::string &name : missing)
            std::cerr << " " << name;
        std::cerr << "\n";
        return 1;
    }
    addDerivedRatios(before);
    addDerivedRatios(after);

    Table table({"metric", "old", "new", "delta", "flag"});
    // Counters are integral, but derived ratios are fractional — keep
    // their digits instead of rounding them to 0 or 1.
    const auto formatValue = [](double v) {
        return v == std::floor(v) ? formatDouble(v, 0)
                                  : formatDouble(v, 4);
    };
    std::vector<std::string> regressions;
    const auto diffSection =
        [&](const std::map<std::string, double> &olds,
            const std::map<std::string, double> &news, bool gate) {
            // Union of names: metrics present on only one side still
            // show up (a disappeared counter usually means the layer
            // was never exercised — worth seeing, never a regression).
            std::map<std::string, std::pair<double, double>> merged;
            for (const auto &[name, v] : olds)
                merged[name].first = v;
            for (const auto &[name, v] : news)
                merged[name].second = v;
            for (const auto &[name, values] : merged) {
                const auto [then, now] = values;
                const double delta = relativeDelta(then, now);
                const bool regressed =
                    gate && now > then &&
                    (std::isinf(delta) || delta > threshold);
                if (regressed)
                    regressions.push_back(name);
                table.addRow({name, formatValue(then), formatValue(now),
                              formatDelta(delta),
                              regressed ? "REGRESSION" : ""});
            }
        };
    diffSection(before.counters, after.counters, /*gate=*/true);
    diffSection(before.gauges, after.gauges, /*gate=*/false);
    diffSection(before.histogramCounts, after.histogramCounts,
                /*gate=*/false);

    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    if (!regressions.empty()) {
        std::cout << regressions.size() << " counter(s) grew more than "
                  << formatDouble(threshold * 100.0, 1) << "%: ";
        for (std::size_t i = 0; i < regressions.size(); ++i)
            std::cout << (i ? ", " : "") << regressions[i];
        std::cout << "\n";
        if (fail_on_regression)
            return 1;
    }
    return 0;
}
