// ECtN overhead: the analytic estimate reproduces the paper's Section VI-B
// numbers at Table I scale, and the live monitor's encodings behave sanely.
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "routing/ectn_state.hpp"

int main() {
  using namespace dfsim;

  // Paper scale: a=16, h=8 -> 128 counters x 4 bits = 512 bits = 6.4 phits
  // per update; at a 100-cycle period that is 6.4% of a 1 phit/cycle link —
  // the paper's "~6 phits, ~6%" estimate.
  {
    const EctnOverheadEstimate est = estimate_ectn_overhead(presets::paper());
    assert(est.counters == 128);
    assert(est.bits_per_counter == 4);
    assert(est.payload_bits == 512);
    assert(std::abs(est.phits - 6.4) < 1e-9);
    assert(std::abs(est.bandwidth_fraction - 0.064) < 1e-9);
  }

  // Monitor: all-zero counters -> nonempty/incremental encodings cost 0,
  // full always pays the array.
  {
    EctnOverheadMonitor monitor;
    monitor.configure(/*routers=*/2, /*counters=*/4, /*bits=*/4, /*id_bits=*/5,
                      /*async_mult=*/2, /*urgent_delta=*/3);
    const std::vector<std::int16_t> zeros(4, 0);
    monitor.on_update(0, zeros.data());
    monitor.on_update(1, zeros.data());
    EctnOverheadReport rep = monitor.report();
    assert(rep.avg_bits_full == 16.0);  // 4 counters x 4 bits
    assert(rep.avg_bits_nonempty == 0.0);
    assert(rep.avg_bits_incremental == 0.0);
    assert(rep.async_urgent_messages == 0);
  }

  // Monitor: a counter jumping past the urgent delta between full
  // broadcasts produces an urgent message; a stable pattern makes the
  // incremental encoding free again.
  {
    EctnOverheadMonitor monitor;
    monitor.configure(1, 4, 4, 5, /*async_mult=*/4, /*urgent_delta=*/3);
    std::vector<std::int16_t> values(4, 0);
    monitor.on_update(0, values.data());  // update 0: full broadcast
    values[2] = 5;                        // jump >= delta
    monitor.on_update(0, values.data());  // update 1: urgent
    monitor.on_update(0, values.data());  // update 2: stable -> nothing
    const EctnOverheadReport rep = monitor.report();
    assert(rep.async_urgent_messages == 1);
    // Incremental paid only for the one change: (4+5 bits)/3 updates.
    assert(std::abs(rep.avg_bits_incremental - 9.0 / 3.0) < 1e-9);
    // Nonempty pays for the single hot counter on updates 1 and 2.
    assert(std::abs(rep.avg_bits_nonempty - 18.0 / 3.0) < 1e-9);
    // Overhead helper: 16 bits on an 80-bit phit link every 100 cycles.
    assert(std::abs(rep.overhead_fraction(80, 100, 16.0) - 0.002) < 1e-9);
  }

  return EXIT_SUCCESS;
}
