#include "traffic/spec.hpp"

#include <cctype>
#include <stdexcept>

namespace dfsim {

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace

std::string to_string(TrafficKind kind) {
  switch (kind) {
    case TrafficKind::kUniform: return "UN";
    case TrafficKind::kAdversarial: return "ADV";
    case TrafficKind::kMixed: return "MIXED";
    case TrafficKind::kShift: return "SHIFT";
    case TrafficKind::kBitComplement: return "BITCOMP";
    case TrafficKind::kTranspose: return "TRANSPOSE";
    case TrafficKind::kTornado: return "TORNADO";
    case TrafficKind::kGroupLocal: return "GROUPLOCAL";
    case TrafficKind::kHotspot: return "HOTSPOT";
    case TrafficKind::kTrace: return "TRACE";
  }
  return "?";
}

std::string to_string(InjectionProcess process) {
  switch (process) {
    case InjectionProcess::kBernoulli: return "bernoulli";
    case InjectionProcess::kBursty: return "bursty";
  }
  return "?";
}

TrafficKind traffic_kind_from_string(const std::string& name) {
  const std::string n = lower(name);
  if (n == "un" || n == "uniform") return TrafficKind::kUniform;
  if (n == "adv" || n == "adversarial") return TrafficKind::kAdversarial;
  if (n == "mixed") return TrafficKind::kMixed;
  if (n == "shift") return TrafficKind::kShift;
  if (n == "bitcomp" || n == "bit-complement" || n == "complement") {
    return TrafficKind::kBitComplement;
  }
  if (n == "transpose") return TrafficKind::kTranspose;
  if (n == "tornado") return TrafficKind::kTornado;
  if (n == "grouplocal" || n == "group-local") return TrafficKind::kGroupLocal;
  if (n == "hotspot") return TrafficKind::kHotspot;
  if (n == "trace") return TrafficKind::kTrace;
  throw std::invalid_argument("unknown traffic pattern: " + name);
}

InjectionProcess injection_process_from_string(const std::string& name) {
  const std::string n = lower(name);
  if (n == "bernoulli") return InjectionProcess::kBernoulli;
  if (n == "bursty" || n == "onoff" || n == "on-off") {
    return InjectionProcess::kBursty;
  }
  throw std::invalid_argument("unknown injection process: " + name);
}

}  // namespace dfsim
