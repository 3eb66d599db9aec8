#include "router/allocator.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace dfsim {

SeparableAllocator::SeparableAllocator(std::int32_t in_ports,
                                       std::int32_t out_ports,
                                       std::int32_t vcs)
    : in_ports_(in_ports), out_ports_(out_ports), vcs_(vcs) {
  // Wrap bound for the input round-robin counters: any multiple of
  // lcm(1..vcs) keeps `counter % n` bit-identical to an unbounded counter
  // for all request counts n <= vcs; the lcm itself is the tightest bound.
  // For absurd vcs (>= 23) the lcm leaves the int range — fall back to no
  // wrap (0): the counters are int64, which cannot practically overflow,
  // so correctness is preserved either way.
  std::int64_t l = 1;
  for (std::int32_t v = 2; v <= vcs_; ++v) {
    l = std::lcm(l, std::int64_t{v});
    if (l > (std::int64_t{1} << 30)) {
      l = 0;
      break;
    }
  }
  in_rr_wrap_ = l;

  in_rr_.assign(static_cast<std::size_t>(in_ports_), 0);
  out_rr_.assign(static_cast<std::size_t>(out_ports_), 0);
  in_busy_.assign(static_cast<std::size_t>(in_ports_), 0);
  out_busy_.assign(static_cast<std::size_t>(out_ports_), 0);
  out_slot_.assign(static_cast<std::size_t>(out_ports_), 0);
  winners_.reserve(static_cast<std::size_t>(in_ports_));
  cand_outs_.reserve(static_cast<std::size_t>(out_ports_));
  iter_grants_.reserve(static_cast<std::size_t>(
      std::min(in_ports_, out_ports_)));
  cycle_grants_.reserve(static_cast<std::size_t>(
      2 * std::min(in_ports_, out_ports_)));
}

std::int32_t SeparableAllocator::stage2_key(PortIndex in,
                                            std::int32_t start) const {
  const std::int32_t cls =
      (first_injection_port_ >= 0 && in >= first_injection_port_) ? 1 : 0;
  return cls * in_ports_ + (in - start + in_ports_) % in_ports_;
}

void SeparableAllocator::advance_pointers(const AllocGrant& grant) {
  // out_rr_ is bounded by its modulus here; in_rr_ wraps at lcm(1..vcs)
  // (see in_rr_wrap).
  out_rr_[static_cast<std::size_t>(grant.out)] = (grant.in + 1) % in_ports_;
  std::int64_t& rr = in_rr_[static_cast<std::size_t>(grant.in)];
  rr = (in_rr_wrap_ != 0 && rr + 1 == in_rr_wrap_) ? 0 : rr + 1;
}

void SeparableAllocator::begin_cycle() {
  std::fill(in_busy_.begin(), in_busy_.end(), std::int8_t{0});
  std::fill(out_busy_.begin(), out_busy_.end(), std::int8_t{0});
  cycle_grants_.clear();
}

std::span<const AllocGrant> SeparableAllocator::iterate(
    const AllocRequestBatch& batch) {
  iter_grants_.clear();

  // Stage 1: each free requesting input picks one VC, round-robin from its
  // pointer. Only inputs present in the batch are visited (they arrive in
  // ascending port order), so an idle router costs nothing here.
  const std::vector<AllocRequest>& reqs = batch.reqs();
  for (const AllocRequestBatch::Group& group : batch.groups()) {
    const auto ini = static_cast<std::size_t>(group.in);
    if (in_busy_[ini]) continue;
    const std::int32_t n = group.count;
    assert(n <= vcs_);  // the wrap-bound equivalence needs n <= vcs
    const auto start = static_cast<std::int32_t>(in_rr_[ini] % n);
    for (std::int32_t k = 0; k < n; ++k) {
      const AllocRequest& req =
          reqs[static_cast<std::size_t>(group.begin + (start + k) % n)];
      if (out_busy_[static_cast<std::size_t>(req.out)]) continue;
      // dfsim-check: allow(CHK-ALLOC): reserved to in_ports_ in the ctor
      winners_.push_back(AllocGrant{group.in, req.vc, req.out});
      std::int32_t& slot = out_slot_[static_cast<std::size_t>(req.out)];
      if (slot == 0) {
        // dfsim-check: allow(CHK-ALLOC): reserved to out_ports_ in the ctor
        cand_outs_.push_back(req.out);
        slot = static_cast<std::int32_t>(cand_outs_.size());
      }
      break;
    }
  }

  // Stage 2: each contested output picks one stage-1 winner. The winner is
  // the input with the smallest circular round-robin distance from the
  // output's pointer — equivalent to the dense scan from out_rr_[out], in
  // O(winners) instead of O(in_ports). Outputs are processed in ascending
  // index order (grant order is observable downstream: the engine pops
  // queues in grant order and RNG draws hang off the new heads).
  // With through-priority enabled, through inputs rank before injection
  // inputs regardless of distance (the old two-pass scan).
  if (!winners_.empty()) {
    std::sort(cand_outs_.begin(), cand_outs_.end());
    for (const PortIndex out : cand_outs_) {
      const auto outi = static_cast<std::size_t>(out);
      if (out_busy_[outi]) continue;
      const std::int32_t start = out_rr_[outi];
      std::int32_t best = -1;
      std::int32_t best_key = 0;
      for (std::size_t w = 0; w < winners_.size(); ++w) {
        const AllocGrant& cand = winners_[w];
        if (cand.out != out) continue;
        if (in_busy_[static_cast<std::size_t>(cand.in)]) continue;
        const std::int32_t key = stage2_key(cand.in, start);
        if (best < 0 || key < best_key) {
          best = static_cast<std::int32_t>(w);
          best_key = key;
        }
      }
      if (best < 0) continue;
      const AllocGrant& grant = winners_[static_cast<std::size_t>(best)];
      // dfsim-check: allow(CHK-ALLOC): reserved to min(in,out) in the ctor
      iter_grants_.push_back(grant);
      in_busy_[static_cast<std::size_t>(grant.in)] = 1;
      out_busy_[outi] = 1;
      advance_pointers(grant);
    }
  }

  // Sparse-clear the per-iteration scratch.
  for (const PortIndex out : cand_outs_) {
    out_slot_[static_cast<std::size_t>(out)] = 0;
  }
  cand_outs_.clear();
  winners_.clear();

  // dfsim-check: allow(CHK-ALLOC): reserved to 2*min(in,out) in the ctor
  cycle_grants_.insert(cycle_grants_.end(), iter_grants_.begin(),
                       iter_grants_.end());
  return {iter_grants_.data(), iter_grants_.size()};
}

std::span<const AllocGrant> SeparableAllocator::allocate(
    const AllocRequestBatch& batch, std::int32_t iterations) {
  const std::vector<AllocRequestBatch::Group>& groups = batch.groups();
  const std::vector<AllocRequest>& reqs = batch.reqs();
  if (groups.size() != reqs.size() || iterations < 1) {
    // Some input offers a choice of VCs: stage 1 picks among them, and a
    // later iteration may grant a stage-2 loser another of its requests.
    begin_cycle();
    for (std::int32_t it = 0; it < iterations; ++it) {
      if (iterate(batch).empty() && it > 0) break;
    }
    return cycle_grants();
  }

  // One request per input, so group g owns request g. Iteration 0 is the
  // whole cycle: stage 1 picks each input's only request (in_rr_ % 1 == 0,
  // nothing is busy yet), stage 2 grants each output its minimum-key
  // requester, and every loser's only request targets a granted output, so
  // later iterations grant nothing. The first requester of an output holds
  // it; a later one takes it only with a smaller key. Keys are computed
  // only for contested outputs.
  cycle_grants_.clear();
  for (std::size_t g = 0; g < reqs.size(); ++g) {
    const AllocGrant cand{groups[g].in, reqs[g].vc, reqs[g].out};
    const auto outi = static_cast<std::size_t>(cand.out);
    std::int32_t& slot = out_slot_[outi];
    if (slot == 0) {
      // dfsim-check: allow(CHK-ALLOC): reserved to 2*min(in,out) in the ctor
      cycle_grants_.push_back(cand);
      slot = static_cast<std::int32_t>(cycle_grants_.size());
      continue;
    }
    AllocGrant& held = cycle_grants_[static_cast<std::size_t>(slot - 1)];
    const std::int32_t start = out_rr_[outi];
    if (stage2_key(cand.in, start) < stage2_key(held.in, start)) held = cand;
  }

  // iterate() grants in ascending output order, and the order is
  // observable: the engine departs grants in sequence and RNG draws hang
  // off the new heads.
  std::sort(cycle_grants_.begin(), cycle_grants_.end(),
            [](const AllocGrant& a, const AllocGrant& b) {
              return a.out < b.out;
            });
  for (const AllocGrant& grant : cycle_grants_) {
    out_slot_[static_cast<std::size_t>(grant.out)] = 0;
    advance_pointers(grant);
  }
  return cycle_grants();
}

std::span<const AllocGrant> SeparableAllocator::allocate_iteration(
    const AllocRequestBatch& batch) {
  begin_cycle();
  iterate(batch);
  return {cycle_grants_.data(), cycle_grants_.size()};
}

}  // namespace dfsim
