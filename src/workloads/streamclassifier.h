/**
 * @file
 * streamclassifier: online nearest-prototype classification of a
 * drifting labeled stream (re-impl of the streamclassifier benchmark,
 * inputs after [50] in the paper).
 *
 * The kernel classifies batches of labeled 2-D points from two drifting
 * class distributions and maintains one prototype per class plus a
 * running accuracy estimate.  The state dependence is the prototype
 * set; like streamcluster, prototypes carry an observation count that
 * slows their adaptation, so stale states iterate more per batch and
 * chunk-fresh states converge quickly (the §V-C fewer-instructions
 * effect).  Drift gives the short-memory property.
 *
 * Nondeterminism: per-batch subsampling of update points and occasional
 * exploration nudges of a prototype.
 *
 * Two classes is a constant (classCenter() anchors exactly two), so the
 * state is fixed arrays, cloned in one allocation, and update() keeps its
 * per-class sums on the stack.  The input generator computes each batch's
 * two class centers once.
 */

#ifndef REPRO_WORKLOADS_STREAMCLASSIFIER_H
#define REPRO_WORKLOADS_STREAMCLASSIFIER_H

#include <array>
#include <vector>

#include "core/state_model.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace repro::workloads {

/** One labeled stream point. */
struct LabeledPoint
{
    Point2 pos;
    unsigned label = 0;
};

/** Tunable shape of the streamclassifier kernel. */
struct StreamclassifierParams
{
    std::size_t inputs = 560;     //!< Labeled batches.
    unsigned pointsPerInput = 32; //!< Points per batch.
    double arena = 100.0;
    double driftAmplitude = 8.0;
    double classSpread = 6.0;     //!< Scatter: classes overlap slightly.
    double countCap = 160.0;      //!< Adaptation-slowing count cap.
    double convergeEps = 0.25;
    unsigned maxRefineIters = 16;
    double includeProbability = 0.7;
    double explorationProbability = 0.01;
    double accuracyAlpha = 0.1;   //!< Running-accuracy EMA factor.
    double matchTolerance = 8.0;  //!< Prototype acceptance distance.
    double accMatchTolerance = 0.5; //!< Accuracy-estimate acceptance.
    std::uint64_t opsPerPointClassify = 20;
    std::uint64_t opsPerPointRefine = 8;
    std::uint64_t dataSeed = 0xFACADE;
};

/** Prototypes + counts + running accuracy: the 104-byte state. */
struct StreamclassifierState : core::TypedState<StreamclassifierState>
{
    static constexpr unsigned kClasses = 2;

    std::array<Point2, kClasses> protos{};
    std::array<double, kClasses> counts{};
    double accuracyEma = 0.5;
};

/** The state dependence of streamclassifier. */
class StreamclassifierModel : public core::IStateModel
{
  public:
    StreamclassifierModel(StreamclassifierParams params,
                          const std::vector<LabeledPoint> *points);

    std::string name() const override { return "streamclassifier"; }
    std::size_t numInputs() const override { return p.inputs; }
    core::StateHandle initialState() const override;
    core::StateHandle coldState() const override;
    double update(core::State &state, std::size_t input,
                  core::ExecContext &ctx) const override;
    bool matches(const core::State &spec,
                 const core::State &orig) const override;
    std::size_t stateSizeBytes() const override { return 104; }

    const StreamclassifierParams &params() const { return p; }

    /** True center of class @p cls (0 or 1) at batch @p t. */
    static Point2 classCenter(const StreamclassifierParams &p, double t,
                              unsigned cls);

  private:
    StreamclassifierParams p;
    const std::vector<LabeledPoint> *points_;
};

/** The streamclassifier benchmark. */
class StreamclassifierWorkload : public Workload
{
  public:
    explicit StreamclassifierWorkload(double scale = 1.0);

    std::string name() const override { return "streamclassifier"; }
    const core::IStateModel &model() const override { return *model_; }
    core::RegionProfile region() const override;
    core::TlpModel tlpModel() const override;
    core::StatsConfig tunedConfig(unsigned cores) const override;
    double quality(const std::vector<double> &outputs) const override;
    perfmodel::AccessProfile accessProfile() const override;

    /** The labeled input stream, batch by batch (for tests). */
    const std::vector<LabeledPoint> &points() const { return points_; }

  private:
    StreamclassifierParams params_;
    std::vector<LabeledPoint> points_;
    std::unique_ptr<StreamclassifierModel> model_;
};

} // namespace repro::workloads

#endif // REPRO_WORKLOADS_STREAMCLASSIFIER_H
