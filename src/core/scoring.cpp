#include "core/scoring.hpp"

#include <cmath>
#include <stdexcept>

namespace mobi::core {

void RecencyScorer::reject(const char* what) {
  throw std::invalid_argument(what);
}

double ReciprocalScorer::below_target(double x, double c) const {
  return 1.0 / (1.0 + std::abs(x / c - 1.0));
}

double ExponentialScorer::below_target(double x, double c) const {
  return std::exp(-std::abs(x / c - 1.0));
}

double StepScorer::below_target(double /*x*/, double /*c*/) const {
  return 0.0;
}

std::unique_ptr<RecencyScorer> make_scorer(const std::string& name) {
  if (name == "reciprocal") return std::make_unique<ReciprocalScorer>();
  if (name == "exponential") return std::make_unique<ExponentialScorer>();
  if (name == "step") return std::make_unique<StepScorer>();
  throw std::invalid_argument("make_scorer: unknown scorer '" + name + "'");
}

}  // namespace mobi::core
