// ContentionCounters: saturation behavior and head/tail symmetry.
#include <cassert>
#include <cstdlib>

#include "routing/contention_counters.hpp"

int main() {
  using namespace dfsim;

  // Head/tail symmetry below saturation: N heads then N tails -> 0.
  {
    ContentionCounters counters(4, 15);
    for (int i = 0; i < 10; ++i) counters.on_head(2);
    assert(counters.value(2) == 10);
    for (int i = 0; i < 10; ++i) counters.on_tail_departure(2);
    assert(counters.value(2) == 0);
    assert(counters.value(0) == 0 && counters.value(1) == 0 &&
           counters.value(3) == 0);
  }

  // Saturation: the counter clamps at the cap...
  {
    ContentionCounters counters(2, 7);
    for (int i = 0; i < 100; ++i) counters.on_head(0);
    assert(counters.value(0) == 7);
    // ...and stays symmetric: 100 departures bring it exactly back to 0,
    // never below (dropped increments drop their matching decrement).
    for (int i = 0; i < 50; ++i) counters.on_tail_departure(0);
    assert(counters.value(0) == 7);  // still draining the overflow
    for (int i = 0; i < 50; ++i) counters.on_tail_departure(0);
    assert(counters.value(0) == 0);
    counters.on_tail_departure(0);  // underflow guard
    assert(counters.value(0) == 0);
  }

  // Interleaved traffic on several ports stays independent.
  {
    ContentionCounters counters(3, 15);
    counters.on_head(0);
    counters.on_head(1);
    counters.on_head(0);
    assert(counters.value(0) == 2);
    assert(counters.value(1) == 1);
    counters.on_tail_departure(0);
    assert(counters.value(0) == 1);
    assert(counters.value(1) == 1);
    counters.reset();
    assert(counters.value(0) == 0 && counters.value(1) == 0);
  }

  return EXIT_SUCCESS;
}
