// Self-tests of the benchmark's own arithmetic: the percentile rule, span
// self time, failed-run accounting and the Chrome trace export.  Exits 0
// when every check holds; prints each failure otherwise.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span span(double start, double end, int parent) {
  perfbench::Span s;
  s.start_us = start;
  s.end_us = end;
  s.parent = parent;
  return s;
}

void percentiles() {
  using perfbench::percentile;
  check(percentile({}, 50) == 0.0, "empty sample has percentile 0");
  check(near(percentile({3, 1, 2}, 50), 2.0), "median of 1,2,3");
  check(near(percentile({1, 2, 3, 4}, 50), 2.5), "median interpolates");
  check(near(percentile({10, 20}, 90), 19.0), "p90 interpolates linearly");
  check(near(percentile({5}, 99), 5.0), "single sample");
  check(near(perfbench::median({4, 1, 3, 2, 100}), 3.0), "median ignores the outlier");

  using perfbench::tail_level;
  check(tail_level(0) == 50.0, "no samples: p50");
  check(tail_level(19) == 50.0, "19 samples: fewer than 10 beyond p50 -> fall back to p50");
  check(tail_level(20) == 50.0, "20 samples: p50");
  check(tail_level(39) == 50.0, "39 samples: 9.75 beyond p75 -> p50");
  check(tail_level(40) == 75.0, "40 samples: exactly 10 beyond p75");
  check(tail_level(99) == 75.0, "99 samples: 9.9 beyond p90");
  check(tail_level(100) == 90.0, "100 samples: p90");
  check(tail_level(200) == 95.0, "200 samples: p95");
  check(tail_level(999) == 95.0, "999 samples: 9.99 beyond p99");
  check(tail_level(1000) == 99.0, "1000 samples: p99");
  check(tail_level(10000) == 99.9, "10000 samples: p99.9");

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const perfbench::Summary s = perfbench::summarize(v);
  check(s.n == 100 && s.tail_level == 90.0, "summary picks p90 for 100 samples");
  check(near(s.p50, 50.5) && near(s.tail, 90.1), "summary values");
}

void self_times() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: union 40)
  // and a grandchild [12,18] under the first child.
  std::vector<perfbench::Span> spans{span(0, 100, -1), span(10, 30, 0), span(20, 50, 0),
                                     span(12, 18, 1)};
  const auto self = perfbench::self_times_us(spans);
  check(near(self[0], 60.0), "root self time counts overlapping children once");
  check(near(self[1], 14.0), "child self time excludes its grandchild");
  check(near(self[2], 30.0), "leaf self time is its duration");
  check(near(self[3], 6.0), "grandchild leaf");

  // A child running past its parent's end is clipped to the parent.
  const auto clipped = perfbench::self_times_us({span(0, 10, -1), span(5, 15, 0)});
  check(near(clipped[0], 5.0), "child clipped to the parent interval");

  // Disjoint children, unsorted.
  const auto disjoint =
      perfbench::self_times_us({span(0, 10, -1), span(6, 8, 0), span(1, 3, 0)});
  check(near(disjoint[0], 6.0), "disjoint children sum");
}

void tracer() {
  perfbench::Tracer off(false);
  check(off.begin("x") == -1 && off.spans().empty(), "disabled tracer records nothing");

  perfbench::Tracer t(true);
  {
    perfbench::Tracer::Scope root(t, "root", 7);
    perfbench::Tracer::Scope child(t, t.intern(std::string("apps.") + "nyx.run"), 7);
  }
  check(t.spans().size() == 2, "two spans recorded");
  check(t.spans()[1].parent == 0 && t.spans()[0].parent == -1, "nesting sets the parent");
  check(std::string(t.spans()[1].name) == "apps.nyx.run", "interned name");
  check(t.spans()[0].end_us >= t.spans()[1].end_us, "parent closes after child");
  const std::string json = t.chrome_json();
  check(json.find("\"traceEvents\"") != std::string::npos, "chrome trace has traceEvents");
  check(json.find("\"name\":\"apps.nyx.run\",\"ph\":\"X\"") != std::string::npos,
        "chrome trace has complete events");
  check(json.find("\"run\":7") != std::string::npos, "chrome trace carries the run id");
}

void failed_accounting() {
  using perfbench::CellCheck;
  check(perfbench::failed_runs({10, 10, false, true}) == 0, "clean cell: nothing failed");
  check(perfbench::failed_runs({10, 7, false, true}) == 3, "incomplete runs fail");
  check(perfbench::failed_runs({10, 10, true, true}) == 10, "cell error fails every run");
  check(perfbench::failed_runs({10, 10, false, false}) == 10, "tally mismatch fails every run");
  check(perfbench::failed_runs({10, 12, false, true}) == 0, "over-completion never underflows");

  perfbench::FailedCount count;
  check(count.share() == 0.0, "nothing attempted: share 0");
  count.add(CellCheck{10, 10, false, true});
  count.add(CellCheck{30, 30, false, false});
  count.add(40, 2);
  check(count.attempted == 80 && count.failed == 32, "counts add up");
  check(near(count.share(), 0.4), "failed share");
}

}  // namespace

int main() {
  percentiles();
  self_times();
  tracer();
  failed_accounting();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
