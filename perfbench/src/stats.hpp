// The benchmark's own arithmetic: percentiles, the tail-percentile
// choice, and the goodput ladder climb. Kept free of I/O so the
// self-tests in selftest.cpp can check it on synthetic inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are <= it (rank ceil(p/100 * n), 1-based).
/// `p` in (0, 100]; throws on an empty sample or p out of range.
/// Misses are passed as +inf, so they push the tail past any limit.
double percentile(std::vector<double> samples, double p);

/// Percentile `p` of `samples`, which must leave at least 10 samples
/// beyond its rank; throws otherwise, since a run too short for its
/// configured tail cannot report it.
double checked_tail(const std::vector<double>& samples, double p);

/// Splits `samples` (in time order) into `parts` equal consecutive parts;
/// a remainder shorter than a part is dropped.
std::vector<std::vector<double>> split(const std::vector<double>& samples,
                                       std::size_t parts);

/// The median over `parts` of each part's checked percentile `p`. A burst
/// of interference that spoils one part moves nothing; a slower program
/// moves every part.
double median_of(const std::vector<std::vector<double>>& parts, double p);

/// Climbs the fixed rate ladder k = first, first+stride, ... while steps
/// pass, stops at the first failure (or when `budget_left` says no), then
/// bisects the rungs between the last pass (or first - stride) and the
/// failure. Returns the index of the highest passing rung, or -1 when
/// none passed. `run_step(k)` runs rung k and says whether it passed;
/// every rung runs at most once.
int climb_ladder(int first, int stride, int last,
                 const std::function<bool(int)>& run_step,
                 const std::function<bool()>& budget_left);

/// Rate of ladder rung k: base * 2^(k / steps_per_doubling).
double ladder_rate(double base, int steps_per_doubling, int k);

}  // namespace perfbench
