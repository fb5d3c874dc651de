#include "rfdump/core/protocols.hpp"

#include <vector>

#include "rfdump/core/protocol_registry.hpp"

namespace rfdump::core {

const char* ProtocolName(Protocol p) {
  if (p == Protocol::kUnknown) return "unknown";
  if (const auto* b = ProtocolRegistry::Instance().Find(p)) return b->name;
  return "?";
}

const char* ModulationName(Modulation m) {
  switch (m) {
    case Modulation::kDbpsk: return "DBPSK";
    case Modulation::kDqpsk: return "DQPSK";
    case Modulation::kCck: return "CCK";
    case Modulation::kGfsk: return "GFSK";
    case Modulation::kOqpsk: return "O-QPSK";
    case Modulation::kNoise: return "noise";
  }
  return "?";
}

std::span<const ProtocolFeatures> FeatureTable() {
  // Concatenation of each bundle's rows in protocol-id order. Built once on
  // first use, after all bundles have registered; doubles as the startup
  // consistency check between registry and kProtocolCount.
  static const std::vector<ProtocolFeatures> kTable = [] {
    auto& registry = ProtocolRegistry::Instance();
    registry.CheckConsistency();
    std::vector<ProtocolFeatures> table;
    for (const auto& bundle : registry.bundles()) {
      table.insert(table.end(), bundle.features.begin(),
                   bundle.features.end());
    }
    return table;
  }();
  return kTable;
}

}  // namespace rfdump::core
