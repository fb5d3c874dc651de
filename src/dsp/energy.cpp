#include "rfdump/dsp/energy.hpp"

#include <stdexcept>

#include "rfdump/dsp/simd.hpp"

namespace rfdump::dsp {

double MeanPower(const_sample_span x) {
  if (x.empty()) return 0.0;
  return simd::Active().sum_finite_power(x.data(), x.size()) /
         static_cast<double>(x.size());
}

MovingAveragePower::MovingAveragePower(std::size_t window) : window_(window) {
  if (window == 0) {
    throw std::invalid_argument("MovingAveragePower window must be >= 1");
  }
  ring_.assign(window, 0.0f);
}

void MovingAveragePower::Reset() {
  std::fill(ring_.begin(), ring_.end(), 0.0f);
  head_ = 0;
  count_ = 0;
  sum_ = 0.0;
  pushes_since_rebuild_ = 0;
}

float MovingAveragePower::Push(cfloat sample) {
  return Push(FinitePower(sample));
}

namespace {

// One push on explicit state, returning the new average. Push() runs it on
// the members, PushAll() on locals that stay in registers across the span.
inline float PushStep(float p, float* ring, std::size_t window,
                      std::size_t& head, std::size_t& count,
                      std::size_t& pushes_since_rebuild, double& sum) {
  sum += p - ring[head];
  ring[head] = p;
  if (++head == window) head = 0;
  if (count < window) ++count;
  // Rebuild the running sum occasionally to cancel accumulated float error.
  if (++pushes_since_rebuild >= 1u << 20) {
    sum = 0.0;
    for (std::size_t i = 0; i < window; ++i) sum += ring[i];
    pushes_since_rebuild = 0;
  }
  return static_cast<float>(sum / static_cast<double>(count));
}

}  // namespace

float MovingAveragePower::Push(float power) {
  return PushStep(power, ring_.data(), window_, head_, count_,
                  pushes_since_rebuild_, sum_);
}

void MovingAveragePower::PushAll(std::span<float> io) {
  std::size_t head = head_;
  std::size_t count = count_;
  std::size_t since = pushes_since_rebuild_;
  double sum = sum_;
  for (float& v : io) {
    v = PushStep(v, ring_.data(), window_, head, count, since, sum);
  }
  head_ = head;
  count_ = count;
  pushes_since_rebuild_ = since;
  sum_ = sum;
}

float MovingAveragePower::Average() const {
  if (count_ == 0) return 0.0f;
  return static_cast<float>(sum_ / static_cast<double>(count_));
}

}  // namespace rfdump::dsp
