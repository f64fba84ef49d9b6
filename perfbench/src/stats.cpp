#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside (0, 100]");
  }
  const double n = static_cast<double>(samples.size());
  // The 1e-9 guards ranks like 0.99 * 100 = 98.99999999999999.
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double checked_tail(const std::vector<double>& samples, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size()) - 1e-9));
  if (samples.size() < rank + 10) {
    throw std::runtime_error("p" + std::to_string(p) + " over " +
                             std::to_string(samples.size()) +
                             " samples leaves fewer than 10 beyond it");
  }
  return percentile(samples, p);
}

std::vector<std::vector<double>> split(const std::vector<double>& samples,
                                       std::size_t parts) {
  const std::size_t per = samples.size() / parts;
  std::vector<std::vector<double>> out;
  for (std::size_t k = 0; k < parts; ++k) {
    out.emplace_back(samples.begin() + static_cast<std::ptrdiff_t>(k * per),
                     samples.begin() + static_cast<std::ptrdiff_t>((k + 1) * per));
  }
  return out;
}

double median_of(const std::vector<std::vector<double>>& parts, double p) {
  std::vector<double> values;
  for (const std::vector<double>& part : parts) values.push_back(checked_tail(part, p));
  return percentile(values, 50.0);
}

int climb_ladder(int first, int stride, int last,
                 const std::function<bool(int)>& run_step,
                 const std::function<bool()>& budget_left) {
  int best = -1;
  int failed_at = -1;
  for (int k = first; k <= last && budget_left(); k += stride) {
    if (run_step(k)) {
      best = k;
    } else {
      failed_at = k;
      break;
    }
  }
  if (failed_at < 0) return best;
  // Bisect the rungs skipped between the last pass and the failure.
  int lo = best >= 0 ? best : first - stride;
  int hi = failed_at;
  while (hi - lo > 1 && budget_left()) {
    const int mid = lo + (hi - lo) / 2;
    if (run_step(mid)) {
      lo = best = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

double ladder_rate(double base, int steps_per_doubling, int k) {
  return base * std::exp2(static_cast<double>(k) / steps_per_doubling);
}

}  // namespace perfbench
