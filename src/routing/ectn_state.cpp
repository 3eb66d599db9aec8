#include "routing/ectn_state.hpp"

namespace dfsim {

EctnOverheadEstimate estimate_ectn_overhead(const SimParams& params,
                                            std::int32_t phit_bits) {
  EctnOverheadEstimate est;
  est.counters = params.topo.a * params.topo.h;
  est.bits_per_counter = bits_for_value(params.routing.counter_saturation);
  est.payload_bits = est.counters * est.bits_per_counter;
  est.phits = static_cast<double>(est.payload_bits) /
              static_cast<double>(phit_bits);
  est.bandwidth_fraction =
      est.phits / static_cast<double>(params.routing.ectn_update_period);
  return est;
}

void EctnOverheadMonitor::configure(std::int32_t routers,
                                    std::int32_t counters_per_router,
                                    std::int32_t bits_per_counter,
                                    std::int32_t id_bits,
                                    std::int32_t async_mult,
                                    std::int32_t urgent_delta) {
  counters_per_router_ = counters_per_router;
  bits_per_counter_ = bits_per_counter;
  id_bits_ = id_bits;
  async_mult_ = async_mult < 1 ? 1 : async_mult;
  urgent_delta_ = urgent_delta;
  const std::size_t total = static_cast<std::size_t>(routers) *
                            static_cast<std::size_t>(counters_per_router);
  last_period_.assign(total, 0);
  last_full_.assign(total, 0);
  updates_seen_.assign(static_cast<std::size_t>(routers), 0);
  samples_ = 0;
  bits_full_ = bits_nonempty_ = bits_incremental_ = bits_async_ = 0.0;
  urgent_messages_ = 0;
}

void EctnOverheadMonitor::on_update(RouterId router,
                                    const std::int16_t* values) {
  const std::size_t base = static_cast<std::size_t>(router) *
                           static_cast<std::size_t>(counters_per_router_);
  const std::int32_t entry_bits = bits_per_counter_ + id_bits_;

  std::int32_t nonempty = 0;
  std::int32_t changed = 0;
  std::int32_t urgent = 0;
  for (std::int32_t c = 0; c < counters_per_router_; ++c) {
    const std::int16_t v = values[c];
    if (v != 0) ++nonempty;
    if (v != last_period_[base + static_cast<std::size_t>(c)]) ++changed;
    const std::int32_t drift =
        v - last_full_[base + static_cast<std::size_t>(c)];
    if (drift >= urgent_delta_ || -drift >= urgent_delta_) ++urgent;
  }

  bits_full_ += static_cast<double>(counters_per_router_ * bits_per_counter_);
  bits_nonempty_ += static_cast<double>(nonempty * entry_bits);
  bits_incremental_ += static_cast<double>(changed * entry_bits);

  // Async policy: a full broadcast every async_mult-th update; in between,
  // only urgent (id, value) messages for counters that drifted past the
  // delta since the last full broadcast.
  auto& seen = updates_seen_[static_cast<std::size_t>(router)];
  if (seen % async_mult_ == 0) {
    bits_async_ +=
        static_cast<double>(counters_per_router_ * bits_per_counter_);
    for (std::int32_t c = 0; c < counters_per_router_; ++c) {
      last_full_[base + static_cast<std::size_t>(c)] = values[c];
    }
  } else {
    bits_async_ += static_cast<double>(urgent * entry_bits);
    urgent_messages_ += urgent;
    // Urgent messages refresh the receivers' view of those counters.
    for (std::int32_t c = 0; c < counters_per_router_; ++c) {
      const std::int32_t drift =
          values[c] - last_full_[base + static_cast<std::size_t>(c)];
      if (drift >= urgent_delta_ || -drift >= urgent_delta_) {
        last_full_[base + static_cast<std::size_t>(c)] = values[c];
      }
    }
  }
  ++seen;

  for (std::int32_t c = 0; c < counters_per_router_; ++c) {
    last_period_[base + static_cast<std::size_t>(c)] = values[c];
  }
  ++samples_;
}

EctnOverheadReport EctnOverheadMonitor::report() const {
  EctnOverheadReport rep;
  if (samples_ == 0) return rep;
  const auto n = static_cast<double>(samples_);
  rep.avg_bits_full = bits_full_ / n;
  rep.avg_bits_nonempty = bits_nonempty_ / n;
  rep.avg_bits_incremental = bits_incremental_ / n;
  rep.avg_bits_async = bits_async_ / n;
  rep.async_urgent_messages = urgent_messages_;
  return rep;
}

}  // namespace dfsim
