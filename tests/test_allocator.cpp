// SeparableAllocator: no double grants, grants match real requests, work
// conservation on contested outputs, multi-iteration improvement, the
// bounded round-robin counters (wrap at lcm(1..vcs), bit-identical cadence
// to an unbounded counter — the int32-overflow fix), and allocate() against
// the begin_cycle() + iterate() loop it replaces in the engine.
#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "router/allocator.hpp"
#include "util/rng.hpp"

int main() {
  using namespace dfsim;

  // Randomized property check: across many request patterns, every grant is
  // backed by a request and no input or output is granted twice.
  {
    const std::int32_t ports = 8;
    const std::int32_t vcs = 3;
    SeparableAllocator alloc(ports, ports, vcs);
    Rng rng(42);
    AllocRequestBatch batch;
    batch.reserve(ports, vcs);
    for (int round = 0; round < 500; ++round) {
      batch.clear();
      std::vector<std::vector<AllocRequest>> requests(
          static_cast<std::size_t>(ports));
      for (std::int32_t in = 0; in < ports; ++in) {
        for (VcIndex vc = 0; vc < vcs; ++vc) {
          if (rng.next_bool(0.5)) {
            const auto out = static_cast<PortIndex>(
                rng.next_below(static_cast<std::uint64_t>(ports)));
            requests[static_cast<std::size_t>(in)].push_back(
                AllocRequest{vc, out});
            batch.add(static_cast<PortIndex>(in), vc, out);
          }
        }
      }
      const auto grants = alloc.allocate_iteration(batch);
      std::vector<int> in_granted(static_cast<std::size_t>(ports), 0);
      std::vector<int> out_granted(static_cast<std::size_t>(ports), 0);
      for (const AllocGrant& g : grants) {
        ++in_granted[static_cast<std::size_t>(g.in)];
        ++out_granted[static_cast<std::size_t>(g.out)];
        bool requested = false;
        for (const AllocRequest& req :
             requests[static_cast<std::size_t>(g.in)]) {
          if (req.vc == g.vc && req.out == g.out) requested = true;
        }
        assert(requested);
      }
      for (std::int32_t p = 0; p < ports; ++p) {
        assert(in_granted[static_cast<std::size_t>(p)] <= 1);
        assert(out_granted[static_cast<std::size_t>(p)] <= 1);
      }
    }
  }

  // Work conservation: when every input wants the same single output, the
  // output is granted exactly once per iteration, and round-robin spreads
  // grants across inputs over time.
  {
    const std::int32_t ports = 4;
    SeparableAllocator alloc(ports, ports, 1);
    AllocRequestBatch batch;
    batch.reserve(ports, 1);
    for (std::int32_t in = 0; in < ports; ++in) {
      batch.add(static_cast<PortIndex>(in), 0, 2);
    }
    std::vector<int> wins(static_cast<std::size_t>(ports), 0);
    for (int round = 0; round < 64; ++round) {
      const auto grants = alloc.allocate_iteration(batch);
      assert(grants.size() == 1);
      assert(grants[0].out == 2);
      ++wins[static_cast<std::size_t>(grants[0].in)];
    }
    for (std::int32_t in = 0; in < ports; ++in) {
      assert(wins[static_cast<std::size_t>(in)] == 16);  // fair RR
    }
  }

  // A second iteration within a cycle can only add grants (iSLIP-style
  // matching refinement), never duplicate busy ports.
  {
    const std::int32_t ports = 3;
    SeparableAllocator alloc(ports, ports, 2);
    AllocRequestBatch batch;
    batch.reserve(ports, 2);
    // Input 0 requests output 0; input 1 requests outputs 0 and 1. In the
    // first iteration both inputs pick output 0 and input 0 wins it; the
    // second iteration lets input 1 fall back to output 1.
    batch.add(0, 0, 0);
    batch.add(1, 0, 0);
    batch.add(1, 1, 1);
    alloc.begin_cycle();
    const auto first = alloc.iterate(batch);
    assert(first.size() == 1);
    alloc.iterate(batch);
    const auto grants = alloc.cycle_grants();
    // Both outputs end up granted across the two iterations.
    assert(grants.size() == 2);
    std::vector<int> out_granted(static_cast<std::size_t>(ports), 0);
    for (const AllocGrant& g : grants) {
      ++out_granted[static_cast<std::size_t>(g.out)];
    }
    assert(out_granted[0] == 1 && out_granted[1] == 1);
  }

  // Bounded input round-robin counter: in_rr wraps at lcm(1..vcs) — force
  // the wrap many times over and check (a) the counter stays inside its
  // bound (no int32 overflow possible) and (b) the VC selection cadence is
  // bit-identical to an ideal unbounded counter even when the per-input
  // request count varies between iterations (1 or 2 requests here).
  {
    const std::int32_t vcs = 3;
    SeparableAllocator alloc(1, 2, vcs);
    assert(alloc.in_rr_wrap() == 6);  // lcm(1, 2, 3)
    AllocRequestBatch batch;
    batch.reserve(1, vcs);
    std::int64_t unbounded = 0;  // the ideal free-running counter
    Rng rng(7);
    for (int round = 0; round < 1000; ++round) {
      batch.clear();
      const bool two = rng.next_bool(0.5);
      const std::int32_t n = two ? 2 : 1;
      batch.add(0, 0, 0);
      if (two) batch.add(0, 1, 1);
      const auto grants = alloc.allocate_iteration(batch);
      assert(grants.size() == 1);
      // Stage 1 picks request (unbounded % n); both outputs are always
      // free, so the stage-1 pick is the grant.
      const auto expected_vc = static_cast<VcIndex>(unbounded % n);
      assert(grants[0].vc == expected_vc);
      ++unbounded;
      assert(alloc.debug_in_rr(0) >= 0 &&
             alloc.debug_in_rr(0) < alloc.in_rr_wrap());  // bounded
      assert(alloc.debug_in_rr(0) == unbounded % alloc.in_rr_wrap());
    }
    // out_rr symmetry audit: the output pointer is advanced modulo
    // in_ports at the single write site (allocator.cpp stage 2), so it is
    // bounded by construction — no wrap fix needed there.
  }

  // Absurd VC counts: lcm(1..23) leaves the 2^30 bound, so the allocator
  // falls back to free-running int64 counters (wrap disabled) instead of
  // silently truncating the bound.
  {
    SeparableAllocator wide(2, 2, 23);
    assert(wide.in_rr_wrap() == 0);
    SeparableAllocator sane(2, 2, 4);
    assert(sane.in_rr_wrap() == 12);  // lcm(1..4)
  }

  // allocate() vs begin_cycle() + the engine's former iterate loop: two
  // allocators of one shape driven in lockstep grant the same sequence,
  // order included, and hold the same input pointers after every cycle.
  // Batch kinds rotate per cycle: one request per input on distinct
  // outputs, one request per input on a few shared outputs (the one-pass
  // path with contested outputs), and several requests per input (the
  // general path), so pointer state carries across both paths.
  {
    std::int64_t one_pass_cycles = 0;
    std::int64_t contested_cycles = 0;
    for (const std::int32_t ports : {4, 15, 31}) {
      for (const std::int32_t vcs : {1, 2, 3}) {
        for (const std::int32_t speedup : {1, 2, 3}) {
          for (const bool through : {false, true}) {
            SeparableAllocator fast(ports, ports, vcs);
            SeparableAllocator ref(ports, ports, vcs);
            if (through) {
              fast.set_through_priority(ports / 2);
              ref.set_through_priority(ports / 2);
            }
            Rng rng(static_cast<std::uint64_t>(
                ports * 1000 + vcs * 100 + speedup * 10 + (through ? 1 : 0)));
            AllocRequestBatch batch;
            batch.reserve(ports, vcs);
            std::vector<PortIndex> perm(static_cast<std::size_t>(ports));
            std::vector<int> out_requests(static_cast<std::size_t>(ports));
            for (int cycle = 0; cycle < 3000; ++cycle) {
              batch.clear();
              const int kind = cycle % 3;
              std::iota(perm.begin(), perm.end(), PortIndex{0});
              for (std::int32_t i = ports - 1; i > 0; --i) {
                std::swap(perm[static_cast<std::size_t>(i)],
                          perm[rng.next_below(
                              static_cast<std::uint64_t>(i + 1))]);
              }
              const auto shared = static_cast<std::uint64_t>(
                  1 + rng.next_below(std::min<std::uint64_t>(
                          3, static_cast<std::uint64_t>(ports))));
              std::fill(out_requests.begin(), out_requests.end(), 0);
              for (std::int32_t in = 0; in < ports; ++in) {
                if (kind == 2) {
                  for (VcIndex vc = 0; vc < vcs; ++vc) {
                    if (!rng.next_bool(0.5)) continue;
                    batch.add(static_cast<PortIndex>(in), vc,
                              static_cast<PortIndex>(rng.next_below(
                                  static_cast<std::uint64_t>(ports))));
                  }
                  continue;
                }
                if (!rng.next_bool(0.7)) continue;
                const auto vc = static_cast<VcIndex>(
                    rng.next_below(static_cast<std::uint64_t>(vcs)));
                const PortIndex out =
                    kind == 0 ? perm[static_cast<std::size_t>(in)]
                              : perm[rng.next_below(shared)];
                ++out_requests[static_cast<std::size_t>(out)];
                batch.add(static_cast<PortIndex>(in), vc, out);
              }
              if (kind != 2 && !batch.empty()) {
                ++one_pass_cycles;
                if (*std::max_element(out_requests.begin(),
                                      out_requests.end()) > 1) {
                  ++contested_cycles;
                }
              }

              const auto got = fast.allocate(batch, speedup);
              assert(got.data() == fast.cycle_grants().data());
              ref.begin_cycle();
              for (std::int32_t it = 0; it < speedup; ++it) {
                if (ref.iterate(batch).empty() && it > 0) break;
              }
              const auto want = ref.cycle_grants();
              assert(got.size() == want.size());
              for (std::size_t g = 0; g < got.size(); ++g) {
                assert(got[g].in == want[g].in);
                assert(got[g].vc == want[g].vc);
                assert(got[g].out == want[g].out);
              }
              for (std::int32_t in = 0; in < ports; ++in) {
                assert(fast.debug_in_rr(in) == ref.debug_in_rr(in));
              }
            }
          }
        }
      }
    }
    // Both one-pass shapes were exercised, not just the general path.
    assert(one_pass_cycles > 0);
    assert(contested_cycles > 0 && contested_cycles < one_pass_cycles);
  }

  return EXIT_SUCCESS;
}
