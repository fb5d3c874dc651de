#include "rfdump/core/fuzz_io.hpp"

#include <algorithm>

namespace rfdump::core {

std::vector<std::uint8_t> FuzzInput(std::initializer_list<std::uint8_t> header,
                                    std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> data;
  data.reserve(header.size() + body.size());
  data.insert(data.end(), header.begin(), header.end());
  data.insert(data.end(), body.begin(), body.end());
  return data;
}

std::vector<std::uint8_t> FuzzBytesToBits(std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> bits(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) bits[i] = data[i] & 1u;
  return bits;
}

dsp::SampleVec FuzzBytesToSamples(std::span<const std::uint8_t> data) {
  const std::size_t n = std::min(data.size() / 2, kMaxFuzzSamples);
  dsp::SampleVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = dsp::cfloat(static_cast<float>(static_cast<std::int8_t>(data[2 * i])),
                       static_cast<float>(
                           static_cast<std::int8_t>(data[2 * i + 1]))) /
           64.0f;
  }
  return x;
}

void FuzzAppendSamples(std::vector<std::uint8_t>& out, dsp::const_sample_span x,
                       std::size_t max_samples) {
  const std::size_t n = std::min(x.size(), max_samples);
  out.reserve(out.size() + 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto q = [](float v) {
      return static_cast<std::uint8_t>(static_cast<std::int8_t>(
          std::clamp(v * 64.0f, -127.0f, 127.0f)));
    };
    out.push_back(q(x[i].real()));
    out.push_back(q(x[i].imag()));
  }
}

void FuzzMutateInput(std::vector<std::uint8_t>& data, util::Xoshiro256& rng) {
  if (data.empty()) data.push_back(0);
  switch (rng.UniformInt(0, 5)) {
    case 0: {  // flip one bit
      const auto i = rng.UniformInt(0, data.size() - 1);
      data[i] ^= static_cast<std::uint8_t>(1u << rng.UniformInt(0, 7));
      break;
    }
    case 1: {  // splat one byte
      data[rng.UniformInt(0, data.size() - 1)] =
          static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      break;
    }
    case 2: {  // truncate
      data.resize(1 + rng.UniformInt(0, data.size() - 1));
      break;
    }
    case 3: {  // duplicate a tail chunk
      const auto from = rng.UniformInt(0, data.size() - 1);
      const std::size_t n =
          std::min<std::size_t>(data.size() - from, rng.UniformInt(1, 64));
      data.insert(data.end(), data.begin() + static_cast<std::ptrdiff_t>(from),
                  data.begin() + static_cast<std::ptrdiff_t>(from + n));
      break;
    }
    case 4: {  // insert random bytes
      const auto at = rng.UniformInt(0, data.size());
      const std::size_t n = rng.UniformInt(1, 16);
      std::vector<std::uint8_t> chunk(n);
      for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(at), chunk.begin(),
                  chunk.end());
      break;
    }
    default: {  // swap two chunks
      if (data.size() >= 4) {
        const auto half = data.size() / 2;
        const auto a = rng.UniformInt(0, half - 1);
        const auto b = half + rng.UniformInt(0, data.size() - half - 1);
        std::swap(data[a], data[b]);
      }
      break;
    }
  }
}

std::uint64_t FuzzFnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace rfdump::core
