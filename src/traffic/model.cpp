#include "traffic/model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dfsim {

namespace {

// Keeps the model's draw sequence distinct from the simulator's routing RNG,
// which splitmix-expands the raw seed.
constexpr std::uint64_t kTrafficSeedSalt = 0x7452414646494353ull;

}  // namespace

TrafficModel::TrafficModel(const TrafficParams& spec,
                           const TrafficTopologyInfo& topo,
                           std::int32_t packet_size_phits, std::uint64_t seed)
    : spec_(spec),
      topo_(topo),
      psize_(packet_size_phits),
      rng_(seed ^ kTrafficSeedSalt) {
  assert(topo_.nodes >= 1 && topo_.groups >= 1 &&
         topo_.nodes_per_group * topo_.groups == topo_.nodes);
  node_hi_ = topo_.nodes;
  build_tables();
  size_ring();
}

void TrafficModel::restrict_nodes(NodeId lo, NodeId hi) {
  assert(lo >= 0 && hi <= topo_.nodes && lo < hi && cycles_ahead() == 0);
  node_lo_ = lo;
  node_hi_ = hi;
  size_ring();
}

void TrafficModel::reset_spec(const TrafficParams& spec) {
  assert(cycles_ahead() == 0);
  spec_ = spec;
  build_tables();
  size_ring();
}

void TrafficModel::size_ring() {
  std::int64_t worst = node_hi_ - node_lo_;
  if (spec_.kind == TrafficKind::kTrace) {
    // Replay serves every due record, several per source if the trace has
    // them: the bound is the most in-range records sharing one cycle.
    std::vector<Cycle> cycles;
    for (const TraceRecord& rec : replay_) {
      if (rec.src >= node_lo_ && rec.src < node_hi_) {
        cycles.push_back(rec.cycle);
      }
    }
    std::sort(cycles.begin(), cycles.end());
    worst = 0;
    for (std::size_t i = 0, j = 0; i < cycles.size(); i = j) {
      while (j < cycles.size() && cycles[j] == cycles[i]) ++j;
      worst = std::max<std::int64_t>(worst, static_cast<std::int64_t>(j - i));
    }
  }
  // A ring offset plus one worst-case cycle must fit 32 bits.
  worst = std::max<std::int64_t>(1, worst);
  if (worst > std::numeric_limits<std::uint32_t>::max() / (kRingCycles + 1)) {
    throw std::invalid_argument("traffic: too many injections per cycle");
  }
  worst_ = static_cast<std::uint32_t>(worst);
  if (worst_ * kRingCycles != ring_cap_) {
    ring_cap_ = worst_ * kRingCycles;
    ring_ = std::make_unique_for_overwrite<Drawn[]>(ring_cap_);
  }
  wpos_ = read_ = read_end_ = 0;
}

void TrafficModel::build_tables() {
  const std::int32_t nodes = topo_.nodes;
  const std::int32_t groups = topo_.groups;
  const std::int32_t npg = topo_.nodes_per_group;
  inject_prob_ = spec_.load / static_cast<double>(psize_);
  inject_threshold_ = Rng::bool_threshold(inject_prob_);

  // Adversarial group bases: the offset is normalized ONCE here, not per
  // injected packet, and topologies with structure beyond a ring (fbfly
  // rows) supply their own mapping.
  if (spec_.kind == TrafficKind::kAdversarial ||
      spec_.kind == TrafficKind::kMixed) {
    adv_base_.assign(static_cast<std::size_t>(groups), 0);
    for (std::int32_t g = 0; g < groups; ++g) {
      std::int32_t gd;
      if (topo_.adv_group) {
        gd = topo_.adv_group(g, spec_.adv_offset);
      } else {
        gd = (g + ((spec_.adv_offset % groups) + groups) % groups) % groups;
      }
      assert(gd >= 0 && gd < groups);
      adv_base_[static_cast<std::size_t>(g)] = gd * npg;
    }
  }

  // Permutation patterns: one table build, hot path is a single load.
  const bool is_perm = spec_.kind == TrafficKind::kShift ||
                       spec_.kind == TrafficKind::kBitComplement ||
                       spec_.kind == TrafficKind::kTranspose ||
                       spec_.kind == TrafficKind::kTornado ||
                       spec_.kind == TrafficKind::kGroupLocal;
  if (is_perm) {
    perm_.assign(static_cast<std::size_t>(nodes), 0);
    switch (spec_.kind) {
      case TrafficKind::kShift: {
        std::int32_t s = ((spec_.shift_offset % nodes) + nodes) % nodes;
        if (s == 0) s = 1 % nodes;  // identity would be pure self-traffic
        for (std::int32_t n = 0; n < nodes; ++n) {
          perm_[static_cast<std::size_t>(n)] = (n + s) % nodes;
        }
        break;
      }
      case TrafficKind::kBitComplement:
        for (std::int32_t n = 0; n < nodes; ++n) {
          perm_[static_cast<std::size_t>(n)] = nodes - 1 - n;
        }
        break;
      case TrafficKind::kTranspose: {
        const auto w = static_cast<std::int32_t>(
            std::sqrt(static_cast<double>(nodes)));
        for (std::int32_t n = 0; n < nodes; ++n) {
          perm_[static_cast<std::size_t>(n)] =
              n < w * w ? (n % w) * w + n / w : n;
        }
        break;
      }
      case TrafficKind::kTornado: {
        const std::int32_t t = std::max(1, (groups - 1) / 2);
        for (std::int32_t n = 0; n < nodes; ++n) {
          const std::int32_t g = n / npg;
          perm_[static_cast<std::size_t>(n)] =
              groups > 1 ? ((g + t) % groups) * npg + n % npg
                         : (n + std::max(1, nodes / 2)) % nodes;
        }
        break;
      }
      case TrafficKind::kGroupLocal:
        for (std::int32_t n = 0; n < nodes; ++n) {
          const std::int32_t g = n / npg;
          perm_[static_cast<std::size_t>(n)] = g * npg + (n % npg + 1) % npg;
        }
        break;
      default:
        break;
    }
  }

  if (spec_.kind == TrafficKind::kHotspot) {
    const std::int32_t count = spec_.hotspot_count;
    hot_nodes_.assign(static_cast<std::size_t>(count), 0);
    // Spread the hot set evenly so it spans groups (worst case for remote
    // congestion detection).
    for (std::int32_t i = 0; i < count; ++i) {
      hot_nodes_[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>((static_cast<std::int64_t>(i) * nodes) /
                                    count);
    }
  }

  // Bursty on/off process: beta = 1/burst_len, on-state rate
  // p_on = burst_factor * load, and alpha chosen so the stationary ON share
  // (alpha / (alpha + beta)) times p_on equals the offered load exactly.
  if (spec_.injection == InjectionProcess::kBursty) {
    p_on_ = std::min(spec_.burst_factor * inject_prob_, 1.0);
    const double duty = p_on_ > 0.0 ? inject_prob_ / p_on_ : 1.0;
    beta_ = 1.0 / spec_.burst_len;
    if (duty >= 1.0 - 1e-12) {
      alpha_ = 1.0;
      beta_ = 0.0;
    } else {
      alpha_ = beta_ * duty / (1.0 - duty);
    }
    p_on_threshold_ = Rng::bool_threshold(p_on_);
    alpha_threshold_ = Rng::bool_threshold(alpha_);
    beta_threshold_ = Rng::bool_threshold(beta_);
    on_.assign(static_cast<std::size_t>(nodes), 0);
    // Start from the stationary distribution so measurement windows are
    // unbiased from the first cycle.
    for (auto& st : on_) st = rng_.next_bool(duty) ? 1 : 0;
  }

  if (spec_.kind == TrafficKind::kTrace) {
    replay_ = read_trace(spec_.trace_path);
    replay_cursor_ = 0;
    replay_base_ = -1;
  }
}

void TrafficModel::begin_cycle(Cycle now) {
  now_ = now;
  if (spec_.kind == TrafficKind::kTrace && replay_base_ < 0) {
    replay_base_ = now;
  }
  if (recording_ && record_base_ < 0) record_base_ = now;
  if (cycles_ahead() == 0) {
    // Nothing drawn ahead: draw `now` here, from the ring's start.
    serve_next_ = fill_cycle_ = now;
    wpos_ = read_end_ = 0;
    filling_ = true;
    fill_node_ = node_lo_;
  }
  assert(now == serve_next_);
  if (fill_cycle_ == now) fill(std::numeric_limits<std::int64_t>::max());
  read_ = cycle_start(read_end_);
  read_end_ = ends_[static_cast<std::size_t>(now & (kAheadCycles - 1))];
  ++serve_next_;
}

bool TrafficModel::draw_ahead(std::int64_t budget, Cycle limit) {
  if (!filling_) {
    if (fill_cycle_ >= limit || fill_cycle_ - serve_next_ >= kAheadCycles) {
      return false;
    }
    // The new cycle may take worst_ entries from `start` on without
    // reaching an unread one. Filling stops short of read_, so
    // wpos_ < read_ means exactly that the unread entries wrap.
    const std::uint32_t start = cycle_start(wpos_);
    const bool fits = wpos_ < read_ ? wpos_ + worst_ < read_
                                    : start == wpos_ || worst_ < read_;
    if (!fits) return false;
    wpos_ = start;
    filling_ = true;
    fill_node_ = node_lo_;
  }
  fill(budget);
  return true;
}

void TrafficModel::fill(std::int64_t budget) {
  Drawn* out = ring_.get() + wpos_;
  bool complete = true;
  if (spec_.kind == TrafficKind::kTrace) {
    // Records from before replay started (or a re-base) are skipped, and
    // so, under a restrict_nodes range, are due records another shard's
    // model serves.
    const Cycle rel = fill_cycle_ - replay_base_;
    for (; replay_cursor_ < replay_.size(); ++replay_cursor_) {
      const TraceRecord& rec = replay_[replay_cursor_];
      if (rec.cycle > rel) break;
      if (budget-- == 0) {
        complete = false;
        break;
      }
      if (rec.cycle == rel && rec.src >= node_lo_ && rec.src < node_hi_) {
        *out++ = Drawn{rec.src, rec.dst};
      }
    }
  } else {
    // Per-node scan on a local RNG copy: its state lives in registers
    // across the (mostly non-injecting) nodes instead of round-tripping
    // through rng_ every iteration, ~5x faster at scale. State is written
    // back before draw_dest so the destination draw continues the same
    // stream.
    const NodeId end = node_hi_ - fill_node_ <= budget
                           ? node_hi_
                           : fill_node_ + static_cast<NodeId>(budget);
    Rng rng = rng_;
    for (NodeId n = fill_node_; n < end; ++n) {
      if (injects(n, rng)) {
        rng_ = rng;
        *out++ = Drawn{n, draw_dest(n)};
        rng = rng_;
      }
    }
    rng_ = rng;
    fill_node_ = end;
    complete = end == node_hi_;
  }
  wpos_ = static_cast<std::uint32_t>(out - ring_.get());
  if (!complete) return;
  ends_[static_cast<std::size_t>(fill_cycle_ & (kAheadCycles - 1))] = wpos_;
  ++fill_cycle_;
  filling_ = false;
}

bool TrafficModel::injects(NodeId src, Rng& rng) {
  // Integer-threshold draws: bit-identical to next_bool on inject_prob_ /
  // alpha_ / beta_ / p_on_ (see Rng::bool_threshold), one int compare per
  // draw — this runs once per node per cycle, the model's only O(nodes)
  // loop. `rng` is passed in so next() can batch the loop on a local copy
  // whose state stays in registers.
  if (spec_.injection == InjectionProcess::kBernoulli) {
    return rng.next_bool_below(inject_threshold_);
  }
  std::uint8_t& st = on_[static_cast<std::size_t>(src)];
  if (st != 0) {
    if (beta_ > 0.0 && rng.next_bool_below(beta_threshold_)) st = 0;
  } else if (rng.next_bool_below(alpha_threshold_)) {
    st = 1;
  }
  return st != 0 && rng.next_bool_below(p_on_threshold_);
}

bool TrafficModel::draw_injects(NodeId src) { return injects(src, rng_); }

NodeId TrafficModel::uniform_excluding(NodeId src) {
  const std::int32_t nodes = topo_.nodes;
  if (nodes <= 1) return src;
  auto dest = static_cast<NodeId>(
      rng_.next_below(static_cast<std::uint64_t>(nodes - 1)));
  if (dest >= src) ++dest;
  return dest;
}

NodeId TrafficModel::draw_dest(NodeId src) {
  switch (spec_.kind) {
    case TrafficKind::kUniform:
      return uniform_excluding(src);
    case TrafficKind::kMixed:
      if (rng_.next_bool(spec_.mixed_uniform_fraction)) {
        return uniform_excluding(src);
      }
      [[fallthrough]];
    case TrafficKind::kAdversarial: {
      const std::int32_t npg = topo_.nodes_per_group;
      return adv_base_[static_cast<std::size_t>(src / npg)] +
             static_cast<NodeId>(
                 rng_.next_below(static_cast<std::uint64_t>(npg)));
    }
    case TrafficKind::kShift:
    case TrafficKind::kBitComplement:
    case TrafficKind::kTranspose:
    case TrafficKind::kTornado:
    case TrafficKind::kGroupLocal:
      return perm_[static_cast<std::size_t>(src)];
    case TrafficKind::kHotspot: {
      if (rng_.next_bool(spec_.hotspot_fraction)) {
        const NodeId hot = hot_nodes_[static_cast<std::size_t>(
            rng_.next_below(hot_nodes_.size()))];
        if (hot != src) return hot;
      }
      return uniform_excluding(src);
    }
    case TrafficKind::kTrace:
      return src;  // replay never draws; fill() copies records directly
  }
  return src;
}

bool TrafficModel::next(Injection& out) {
  if (read_ == read_end_) return false;
  const Drawn& drawn = ring_[read_++];
  out.src = drawn.src;
  out.dst = drawn.dst;
  if (recording_) {
    const bool grew = recorded_.size() == recorded_.capacity();
    // dfsim-check: allow(CHK-ALLOC): growth is counted in record_growth_
    recorded_.push_back(TraceRecord{now_ - record_base_, out.src, out.dst});
    if (grew) ++record_growth_;
  }
  return true;
}

void TrafficModel::start_recording(std::size_t reserve_records) {
  recording_ = true;
  record_base_ = -1;
  recorded_.clear();
  recorded_.reserve(reserve_records);
}

void TrafficModel::write_recorded(const std::string& path) const {
  write_trace(path, recorded_);
}

}  // namespace dfsim
