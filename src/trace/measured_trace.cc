#include "trace/measured_trace.h"

#include <algorithm>

namespace repro::trace {

double
MeasuredTrace::makespanUs() const
{
    double makespan = 0.0;
    for (double f : finishUs)
        makespan = std::max(makespan, f);
    return makespan;
}

} // namespace repro::trace
