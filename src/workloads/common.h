/**
 * @file
 * Shared math and synthetic-data helpers for the workload kernels.
 */

#ifndef REPRO_WORKLOADS_COMMON_H
#define REPRO_WORKLOADS_COMMON_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace repro::workloads {

/** 2-D point. */
struct Point2
{
    double x = 0.0;
    double y = 0.0;
};

// distanceSq and distance are inline because the kernels call them in
// their innermost loops: streamclassifier and streamcluster per point
// and per refinement step, bodytrack per particle and joint.  The build
// passes neither -march nor -mfma and baseline x86-64 has no FMA, so
// inlining cannot contract dx * dx + dy * dy or move an output bit.

/** Squared Euclidean distance. */
inline double
distanceSq(const Point2 &a, const Point2 &b)
{
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return dx * dx + dy * dy;
}

/** Euclidean distance between two points. */
inline double
distance(const Point2 &a, const Point2 &b)
{
    return std::sqrt(distanceSq(a, b));
}

/** Standard normal CDF (for Black's formula). */
double normalCdf(double x);

/**
 * Black (1976) price of a European payer swaption on a lognormal
 * forward swap rate.
 *
 * @param forward Forward swap rate.
 * @param strike Fixed strike rate.
 * @param vol Lognormal volatility.
 * @param expiry Option expiry in years.
 * @param annuity Present value of a basis point x notional.
 */
double blackSwaptionPrice(double forward, double strike, double vol,
                          double expiry, double annuity);

/**
 * Deterministic smooth 1-D trajectory: a sum of incommensurate
 * sinusoids, phase-shifted by @p channel.  Used as ground truth for the
 * tracking workloads (trajectories are input data: identical across
 * runs, independent of the run seed).
 */
double smoothTrajectory(double t, unsigned channel, double amplitude);

/**
 * Positions of @p clusters slowly drifting cluster centers at batch
 * @p t — the data distribution of the stream workloads.
 */
std::vector<Point2> driftingCenters(double t, unsigned clusters,
                                    double arena, double drift_amplitude);

/**
 * Greedy minimum-distance matching cost between two equal-size center
 * sets (used by stream-workload matches() checks and quality metrics).
 */
double greedyMatchCost(const std::vector<Point2> &a,
                       const std::vector<Point2> &b);

} // namespace repro::workloads

#endif // REPRO_WORKLOADS_COMMON_H
