#include "workloads/common.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace repro::workloads {

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
blackSwaptionPrice(double forward, double strike, double vol, double expiry,
                   double annuity)
{
    REPRO_ASSERT(forward > 0.0 && strike > 0.0, "rates must be positive");
    REPRO_ASSERT(vol > 0.0 && expiry > 0.0, "vol and expiry must be > 0");
    const double stddev = vol * std::sqrt(expiry);
    const double d1 =
        (std::log(forward / strike) + 0.5 * stddev * stddev) / stddev;
    const double d2 = d1 - stddev;
    return annuity * (forward * normalCdf(d1) - strike * normalCdf(d2));
}

double
smoothTrajectory(double t, unsigned channel, double amplitude)
{
    const double phase = static_cast<double>(channel) * 1.7;
    return amplitude * (0.55 * std::sin(0.031 * t + phase) +
                        0.30 * std::sin(0.013 * t + 2.1 * phase) +
                        0.15 * std::sin(0.057 * t + 0.4 * phase));
}

std::vector<Point2>
driftingCenters(double t, unsigned clusters, double arena,
                double drift_amplitude)
{
    std::vector<Point2> centers(clusters);
    for (unsigned c = 0; c < clusters; ++c) {
        // Base grid position plus a smooth drift.
        const double gx =
            arena * (0.25 + 0.5 * static_cast<double>(c % 2));
        const double gy =
            arena * (0.25 + 0.5 * static_cast<double>((c / 2) % 2));
        centers[c].x = gx + smoothTrajectory(t, 2 * c, drift_amplitude);
        centers[c].y = gy + smoothTrajectory(t, 2 * c + 1, drift_amplitude);
    }
    return centers;
}

double
greedyMatchCost(const std::vector<Point2> &a, const std::vector<Point2> &b)
{
    REPRO_ASSERT(a.size() == b.size(), "center sets must match in size");
    std::vector<bool> used(b.size(), false);
    double total = 0.0;
    for (const Point2 &pa : a) {
        double best = 0.0;
        std::size_t best_j = b.size();
        for (std::size_t j = 0; j < b.size(); ++j) {
            if (used[j])
                continue;
            const double d = distance(pa, b[j]);
            if (best_j == b.size() || d < best) {
                best = d;
                best_j = j;
            }
        }
        REPRO_ASSERT(best_j < b.size(), "greedy matching failed");
        used[best_j] = true;
        total += best;
    }
    return total;
}

} // namespace repro::workloads
