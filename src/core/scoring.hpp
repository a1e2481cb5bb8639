// Client recency scoring (paper §2).
//
// A client attaches a target recency C in (0, 1] to each request. Serving
// a copy whose recency score is x earns:
//   * 1.0 when x >= C (the copy meets the client's requirement), and
//   * f_C(x) < 1 otherwise, decreasing as x falls away from C.
// A remotely fetched copy always has x = 1.0 and therefore always scores
// 1.0. The paper gives two example scoring functions, both implemented
// here, plus a strict step function for ablation:
//   reciprocal:  f_C(x) = 1 / (1 + |x/C - 1|)
//   exponential: f_C(x) = exp(-|x/C - 1|)
//   step:        f_C(x) = 1 if x >= C else 0
#pragma once

#include <memory>
#include <string>

namespace mobi::core {

class RecencyScorer {
 public:
  virtual ~RecencyScorer() = default;

  /// Score of serving a copy with recency `x` to a client with target `c`.
  /// Preconditions: x in [0, 1], c in (0, 1], each checked on every call
  /// (std::invalid_argument). Returns a value in [0, 1], with
  /// score(x, c) == 1.0 whenever x >= c. Inline because the candidate
  /// builder calls it once or twice per request; only the throw is out of
  /// line.
  double score(double x, double c) const {
    if (x < 0.0 || x > 1.0) [[unlikely]] {
      reject("RecencyScorer::score: x must be in [0, 1]");
    }
    if (!(c > 0.0) || c > 1.0) [[unlikely]] {
      reject("RecencyScorer::score: c must be in (0, 1]");
    }
    if (x >= c) return 1.0;
    return below_target(x, c);
  }

  /// The client's gain from a remote fetch instead of this cached copy:
  /// benefit = 1.0 - score(x, c) (paper §2's benefit(i)).
  double benefit(double x, double c) const { return 1.0 - score(x, c); }

  virtual std::string name() const = 0;

 protected:
  /// Score for the x < c case only; implementations need not re-check.
  virtual double below_target(double x, double c) const = 0;

 private:
  [[noreturn]] static void reject(const char* what);
};

class ReciprocalScorer final : public RecencyScorer {
 public:
  std::string name() const override { return "reciprocal"; }

 protected:
  double below_target(double x, double c) const override;
};

class ExponentialScorer final : public RecencyScorer {
 public:
  std::string name() const override { return "exponential"; }

 protected:
  double below_target(double x, double c) const override;
};

/// All-or-nothing: no partial credit below the target.
class StepScorer final : public RecencyScorer {
 public:
  std::string name() const override { return "step"; }

 protected:
  double below_target(double x, double c) const override;
};

std::unique_ptr<RecencyScorer> make_scorer(const std::string& name);

}  // namespace mobi::core
