// Heap allocations on the table-assembly hot paths, counted by replacing the
// global operator new. The replacement is program-wide, so these tests are
// their own binary (tests_alloc) and touch no other suite.
//
//   * a passing util::require or util::ensure allocates nothing, whatever
//     the length of its message;
//   * FailureMetrics::count allocates nothing;
//   * Column::push_continuous allocates only when its vector grows;
//   * Column::push_nominal and code_of look a known label up without
//     copying it, however long it is;
//   * rack_day_table makes fewer allocations than it has rows: it pays per
//     column and per vector growth, never per cell.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

#include "rainshine/core/metrics.hpp"
#include "rainshine/core/observations.hpp"
#include "rainshine/simdc/tickets.hpp"
#include "rainshine/table/column.hpp"
#include "rainshine/util/check.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every unaligned form is replaced, so memory from one of them never reaches
// a sanitizer runtime's own operator delete, nor theirs ours. GCC cannot see
// that each operator delete below frees what an operator new here got from
// malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rainshine {
namespace {

/// Allocations made while `fn` runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(Alloc, CounterSeesOperatorNew) {
  std::vector<double> kept;
  EXPECT_EQ(allocations_during([&] { kept.resize(100); }), 1U);
}

TEST(Alloc, PassingRequireAllocatesNothing) {
  volatile int limit = 1000;
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < limit; ++i) {
      util::require(i < limit, "rack id out of range");
      util::ensure(i >= 0, "push_continuous on non-continuous column");
    }
  });
  EXPECT_EQ(n, 0U);
}

TEST(Alloc, PushContinuousAllocatesOnlyToGrow) {
  table::Column column;
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) column.push_continuous(i);
  });
  EXPECT_LE(n, 11U);  // capacities 1, 2, 4, ..., 1024
  EXPECT_EQ(column.size(), 1000U);
}

TEST(Alloc, KnownNominalLabelCostsNoAllocationPerLookup) {
  // 1,000 pushes of a label already in the dictionary: only the code
  // vector's growth may allocate, for a 22-character label (past the
  // small-string buffer) as for a 5-character one.
  const auto repeat_pushes = [](std::string_view label) {
    table::Column column(table::ColumnType::kNominal);
    column.push_nominal(label);
    return allocations_during([&] {
      for (int i = 0; i < 1000; ++i) {
        column.push_nominal(label);
        EXPECT_EQ(column.code_of(label), 0);
      }
    });
  };
  EXPECT_LE(repeat_pushes("rack-R0042-dc3-west-S4"), repeat_pushes("DC1-S"));
}

class AllocFleetTest : public ::testing::Test {
 protected:
  AllocFleetTest()
      : spec_([] {
          simdc::FleetSpec s = simdc::FleetSpec::test_default();
          s.num_days = 120;
          return s;
        }()),
        fleet_(spec_),
        env_(fleet_, spec_.seed),
        hazard_(fleet_, env_),
        metrics_(fleet_, simdc::simulate(fleet_, env_, hazard_, {.seed = 5})) {}

  simdc::FleetSpec spec_;
  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
  simdc::HazardModel hazard_;
  core::FailureMetrics metrics_;
};

TEST_F(AllocFleetTest, FailureMetricsCountAllocatesNothing) {
  const auto racks = static_cast<int>(fleet_.num_racks());
  std::uint64_t tickets = 0;
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      tickets += metrics_.count(i % racks, i % spec_.num_days,
                                simdc::FaultType::kDiskFailure);
    }
  });
  EXPECT_EQ(n, 0U) << "while counting " << tickets << " disk tickets";
}

TEST_F(AllocFleetTest, RackDayTableAllocatesPerColumnNotPerCell) {
  table::Table t;
  const std::size_t n = allocations_during(
      [&] { t = core::rack_day_table(metrics_, env_, {.include_mu = false}); });
  ASSERT_GT(t.num_rows(), 1000U);
  EXPECT_LT(n, t.num_rows()) << t.num_rows() << " rows x " << t.num_columns()
                             << " columns";
}

}  // namespace
}  // namespace rainshine
