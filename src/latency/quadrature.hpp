// Numerical integration helpers: the L2S E[max] fallback above
// kExactMaxShards input shards, and the high-resolution test references.
#pragma once

#include <concepts>

namespace optchain::latency {

/// Composite Simpson's rule on [a, b] with n subintervals (n rounded up to
/// even). Deterministic cost; integrands here are smooth and exponentially
/// decaying, so a fixed grid suffices.
template <std::invocable<double> F>
double integrate_simpson(F&& f, double a, double b, int n = 256) {
  if (b <= a) return 0.0;
  if (n % 2 != 0) ++n;
  const double h = (b - a) / n;
  double sum = f(a) + f(b);
  for (int i = 1; i < n; ++i) {
    sum += f(a + h * i) * (i % 2 == 0 ? 2.0 : 4.0);
  }
  return sum * h / 3.0;
}

/// Integrates f over [0, ∞) for an integrand known to decay like e^(-t/scale):
/// uses Simpson on [0, cutoff_scales * scale]. The truncation error is
/// O(e^(-cutoff_scales)) relative.
template <std::invocable<double> F>
double integrate_decaying(F&& f, double scale, double cutoff_scales = 30.0,
                          int n = 512) {
  return integrate_simpson(static_cast<F&&>(f), 0.0, scale * cutoff_scales, n);
}

}  // namespace optchain::latency
