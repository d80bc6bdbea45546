#include "minirocket_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace p2auth::ml {

// ---------------------------------------------------------------------------
// Reference (oracle) path: the original scalar implementation in
// float32.  Its per-element floating-point operation order is the
// bit-exactness contract the library's fast path must honour: each
// output element accumulates its in-range taps in ascending tap order,
// starting from +0.0f (nine-tap sum) or -sum9 (kernel completion).
// ---------------------------------------------------------------------------

namespace reference {

std::vector<float> nine_tap_sum(std::span<const float> x, int dilation) {
  const auto n = static_cast<long long>(x.size());
  std::vector<float> sum(x.size(), 0.0f);
  for (int j = 0; j < 9; ++j) {
    const long long shift = static_cast<long long>(j - 4) * dilation;
    const long long lo = std::max<long long>(0, -shift);
    const long long hi = std::min(n, n - shift);
    for (long long i = lo; i < hi; ++i) {
      sum[static_cast<std::size_t>(i)] +=
          x[static_cast<std::size_t>(i + shift)];
    }
  }
  return sum;
}

namespace {

std::vector<float> to_float(std::span<const double> x) {
  return std::vector<float>(x.begin(), x.end());
}

// Completes the convolution for one kernel from the shared nine-tap sum.
void kernel_from_sum(std::span<const float> x, std::span<const float> sum9,
                     const std::array<int, 3>& kernel, int dilation,
                     std::vector<float>& out) {
  const auto n = static_cast<long long>(x.size());
  out.assign(x.size(), 0.0f);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = -sum9[i];
  for (const int j : kernel) {
    const long long shift = static_cast<long long>(j - 4) * dilation;
    const long long lo = std::max<long long>(0, -shift);
    const long long hi = std::min(n, n - shift);
    for (long long i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] +=
          3.0f * x[static_cast<std::size_t>(i + shift)];
    }
  }
}

}  // namespace

double conv_rounding_bound(std::span<const double> x, std::size_t i,
                           int dilation) {
  const auto n = static_cast<long long>(x.size());
  double field = 0.0;
  for (int j = 0; j < 9; ++j) {
    const long long idx = static_cast<long long>(i) +
                          static_cast<long long>(j - 4) * dilation;
    if (idx >= 0 && idx < n) {
      field += std::abs(x[static_cast<std::size_t>(idx)]);
    }
  }
  return 64.0 * std::numeric_limits<float>::epsilon() * field;
}

linalg::Vector transform(const MiniRocket& model, std::span<const double> x) {
  if (!model.fitted()) {
    throw std::logic_error("reference::transform: not fitted");
  }
  if (x.size() != model.input_length()) {
    throw std::invalid_argument("reference::transform: length mismatch");
  }
  const auto& kernels = minirocket_kernels();
  const auto& dilations = model.dilations();
  const std::span<const double> biases = model.biases();
  const std::size_t biases_per_combo = model.biases_per_combo();
  linalg::Vector features(model.num_features(), 0.0);
  const double inv_n = 1.0 / static_cast<double>(x.size());
  const std::vector<float> xf = to_float(x);
  std::vector<float> conv;
  if (model.pooling() == Pooling::kMax) {
    for (std::size_t di = 0; di < dilations.size(); ++di) {
      const std::vector<float> sum9 = nine_tap_sum(xf, dilations[di]);
      for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
        kernel_from_sum(xf, sum9, kernels[ki], dilations[di], conv);
        float peak = conv.front();
        for (const float v : conv) peak = std::max(peak, v);
        features[ki * dilations.size() + di] = peak;
      }
    }
    return features;
  }
  std::vector<std::size_t> counts(biases_per_combo);
  std::vector<float> bias(biases_per_combo);
  for (std::size_t di = 0; di < dilations.size(); ++di) {
    const std::vector<float> sum9 = nine_tap_sum(xf, dilations[di]);
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      kernel_from_sum(xf, sum9, kernels[ki], dilations[di], conv);
      const std::size_t combo = ki * dilations.size() + di;
      for (std::size_t q = 0; q < biases_per_combo; ++q) {
        bias[q] = static_cast<float>(biases[combo * biases_per_combo + q]);
      }
      std::fill(counts.begin(), counts.end(), 0);
      for (const float v : conv) {
        for (std::size_t q = 0; q < biases_per_combo; ++q) {
          counts[q] += (v > bias[q]) ? 1 : 0;
        }
      }
      for (std::size_t q = 0; q < biases_per_combo; ++q) {
        features[combo * biases_per_combo + q] =
            static_cast<double>(counts[q]) * inv_n;
      }
    }
  }
  return features;
}

linalg::Matrix transform_batch(const MiniRocket& model,
                               const std::vector<Series>& batch) {
  linalg::Matrix out(batch.size(), model.num_features());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const linalg::Vector f = transform(model, batch[i]);
    std::copy(f.begin(), f.end(), out.row(i).begin());
  }
  return out;
}

}  // namespace reference

Series dilated_convolution(std::span<const double> x,
                           const std::array<int, 3>& kernel, int dilation) {
  if (dilation < 1) {
    throw std::invalid_argument("dilated_convolution: dilation >= 1");
  }
  const std::vector<float> xf = reference::to_float(x);
  std::vector<float> out;
  reference::kernel_from_sum(xf, reference::nine_tap_sum(xf, dilation),
                             kernel, dilation, out);
  return Series(out.begin(), out.end());
}

}  // namespace p2auth::ml
