#include "rfdump/dsp/resampler.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/util/scratch.hpp"

namespace rfdump::dsp {
namespace {

struct ResamplerWorkTag;

/// The branch-major taps of the (interp, decim, taps_per_phase) prototype.
std::vector<float> DesignBranches(std::size_t interp, std::size_t decim,
                                  std::size_t taps_per_phase) {
  // Prototype low-pass at the composite rate (input rate x L): cutoff at the
  // narrower of the input and output Nyquist frequencies.
  const double composite_rate = static_cast<double>(interp);  // normalized
  const double cutoff =
      0.5 / static_cast<double>(std::max(interp, decim)) * composite_rate;
  auto proto = DesignLowPass(cutoff, composite_rate, interp * taps_per_phase,
                             WindowType::kBlackmanHarris);
  // Interpolation inserts L-1 zeros between samples; compensate the gain.
  std::vector<float> branches(proto.size());
  for (std::size_t i = 0; i < proto.size(); ++i) {
    branches[(i % interp) * taps_per_phase + i / interp] =
        proto[i] * static_cast<float>(interp);
  }
  return branches;
}

const float* SharedBranches(std::size_t interp, std::size_t decim,
                            std::size_t taps_per_phase) {
  using Key = std::tuple<std::size_t, std::size_t, std::size_t>;
  static std::mutex mu;
  static std::map<Key, std::unique_ptr<const std::vector<float>>> tables;
  const std::lock_guard<std::mutex> lock(mu);
  auto& table = tables[Key{interp, decim, taps_per_phase}];
  if (!table) {
    table = std::make_unique<const std::vector<float>>(
        DesignBranches(interp, decim, taps_per_phase));
  }
  return table->data();
}

}  // namespace

RationalResampler::RationalResampler(std::size_t interp, std::size_t decim,
                                     std::size_t taps_per_phase)
    : interp_(interp), decim_(decim), taps_per_phase_(taps_per_phase) {
  if (interp == 0 || decim == 0 || taps_per_phase == 0) {
    throw std::invalid_argument("RationalResampler parameters must be >= 1");
  }
  taps_ = SharedBranches(interp, decim, taps_per_phase);
  history_.assign(taps_per_phase_ - 1, cfloat{0.0f, 0.0f});
}

void RationalResampler::Reset() {
  std::fill(history_.begin(), history_.end(), cfloat{0.0f, 0.0f});
  phase_acc_ = 0;
}

void RationalResampler::Process(const_sample_span input, SampleVec& out) {
  // Input n sits at composite position n*L and the next output phase_acc_
  // past input 0; outputs follow every M positions while one lies before the
  // end of the input, each reading the taps_per_phase inputs that end at its
  // own. The first outputs reach back into the history: they read a linear
  // [history | input head] buffer, the rest read the input in place.
  const std::size_t hist = history_.size();
  const std::size_t end = input.size() * interp_;
  if (end > phase_acc_) {
    const std::size_t n_out = (end - phase_acc_ + decim_ - 1) / decim_;
    const std::size_t in_input = hist * interp_;  // first position in place
    const std::size_t n_head = std::min(
        n_out, in_input > phase_acc_
                   ? (in_input - phase_acc_ + decim_ - 1) / decim_
                   : 0);
    const std::size_t at = out.size();
    out.resize(at + n_out);
    const simd::Kernels& kernels = simd::Active();
    if (n_head > 0) {
      auto& work = util::Scratch<cfloat, ResamplerWorkTag>();
      work.assign(history_.begin(), history_.end());
      work.insert(work.end(), input.begin(),
                  input.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(input.size(), hist)));
      kernels.resample(work.data(), n_head, taps_, taps_per_phase_, interp_,
                       decim_, phase_acc_, out.data() + at);
    }
    if (n_out > n_head) {
      kernels.resample(input.data(), n_out - n_head, taps_, taps_per_phase_,
                       interp_, decim_,
                       phase_acc_ + n_head * decim_ - in_input,
                       out.data() + at + n_head);
    }
    phase_acc_ += n_out * decim_;
  }
  phase_acc_ -= end;
  // Keep the last hist inputs of [history | input].
  if (input.size() >= hist) {
    std::copy(input.end() - static_cast<std::ptrdiff_t>(hist), input.end(),
              history_.begin());
  } else {
    std::move(history_.begin() + static_cast<std::ptrdiff_t>(input.size()),
              history_.end(), history_.begin());
    std::copy(input.begin(), input.end(),
              history_.end() - static_cast<std::ptrdiff_t>(input.size()));
  }
}

SampleVec RationalResampler::Resampled(const_sample_span input) {
  SampleVec out;
  out.reserve(input.size() * interp_ / decim_ + 8);
  Process(input, out);
  return out;
}

}  // namespace rfdump::dsp
