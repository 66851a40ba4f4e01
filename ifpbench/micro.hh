/**
 * @file
 * Layer microbenchmarks: ns/op of single components, timed over fixed
 * iteration counts through their public functions.
 */

#ifndef IFPBENCH_MICRO_HH
#define IFPBENCH_MICRO_HH

#include <string>
#include <vector>

namespace ifpbench {

struct MicroResult
{
    std::string name;
    /** Median over repetitions of ns per operation. */
    double nsPerOp;
};

/**
 * Run every microbenchmark. Each also checks that its input takes the
 * intended path (e.g. a walk promote really narrows); @p ok is cleared
 * when one does not.
 */
std::vector<MicroResult> runMicrobenchmarks(bool &ok);

} // namespace ifpbench

#endif // IFPBENCH_MICRO_HH
