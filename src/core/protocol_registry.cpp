#include "rfdump/core/protocol_registry.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>

#include "rfdump/core/pipeline.hpp"

namespace rfdump::core {

void AnalysisCommit::operator()(MonitorReport& report) {
  report.events.insert(report.events.end(),
                       std::make_move_iterator(events.begin()),
                       std::make_move_iterator(events.end()));
  events.clear();
}

ProtocolRegistry& ProtocolRegistry::Instance() {
  // Function-local static: safely constructed on first use during the
  // static initialization of whichever bundle TU registers first.
  static ProtocolRegistry registry;
  return registry;
}

bool ProtocolRegistry::Register(ProtocolBundle bundle) {
  const auto id = static_cast<std::size_t>(bundle.protocol);
  if (bundle.protocol == Protocol::kUnknown || id >= kProtocolCount) {
    return false;
  }
  if (bundle.name == nullptr || bundle.name[0] == '\0' ||
      bundle.cli_name == nullptr || bundle.cli_name[0] == '\0') {
    return false;
  }
  for (const auto& b : bundles_) {
    if (b.protocol == bundle.protocol ||
        std::strcmp(b.name, bundle.name) == 0 ||
        std::strcmp(b.cli_name, bundle.cli_name) == 0) {
      return false;
    }
  }
  auto pos = std::lower_bound(
      bundles_.begin(), bundles_.end(), bundle.protocol,
      [](const ProtocolBundle& b, Protocol p) { return b.protocol < p; });
  bundles_.insert(pos, std::move(bundle));
  return true;
}

std::span<const ProtocolBundle> ProtocolRegistry::bundles() const {
  return bundles_;
}

const ProtocolBundle* ProtocolRegistry::Find(Protocol p) const {
  for (const auto& b : bundles_) {
    if (b.protocol == p) return &b;
  }
  return nullptr;
}

const ProtocolBundle* ProtocolRegistry::FindCli(
    std::string_view cli_name) const {
  for (const auto& b : bundles_) {
    if (cli_name == b.cli_name) return &b;
  }
  return nullptr;
}

std::uint32_t ProtocolRegistry::DefaultMask() const {
  std::uint32_t mask = 0;
  for (const auto& b : bundles_) {
    if (b.default_enabled) mask |= BundleBit(b.protocol);
  }
  return mask;
}

void ProtocolRegistry::CheckConsistency() const {
  // Register() already enforces unique, in-range ids and unique names; what
  // it cannot see is whether kProtocolCount still matches the final set of
  // registered bundles. Density in [1, kProtocolCount) catches both a bundle
  // added without bumping the constant and a stale constant after a removal.
  if (bundles_.size() != kProtocolCount - 1) {
    throw std::logic_error(
        "ProtocolRegistry: " + std::to_string(bundles_.size()) +
        " bundles registered but kProtocolCount = " +
        std::to_string(kProtocolCount) +
        " (expected one bundle per id in [1, kProtocolCount))");
  }
  for (std::size_t id = 1; id < kProtocolCount; ++id) {
    const auto* b = Find(static_cast<Protocol>(id));
    if (b == nullptr) {
      throw std::logic_error("ProtocolRegistry: no bundle for protocol id " +
                             std::to_string(id));
    }
    for (const auto& row : b->features) {
      if (row.protocol != b->protocol) {
        throw std::logic_error(std::string("ProtocolRegistry: bundle '") +
                               b->name +
                               "' has a feature row tagged with a different "
                               "protocol");
      }
    }
  }
}

std::uint32_t DefaultBundleMask() {
  return ProtocolRegistry::Instance().DefaultMask();
}

bool RegisterProtocolBundle(ProtocolBundle bundle) {
  return ProtocolRegistry::Instance().Register(std::move(bundle));
}

}  // namespace rfdump::core
