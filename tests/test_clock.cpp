#include "sim/hardware_clock.hpp"

#include <gtest/gtest.h>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::sim {
namespace {

TEST(HardwareClock, ConstantRateMapsLinearly) {
  const auto clock = HardwareClock::constant(1.5, 2.0);
  EXPECT_DOUBLE_EQ(clock.local(0.0), 2.0);
  EXPECT_DOUBLE_EQ(clock.local(4.0), 8.0);
  EXPECT_DOUBLE_EQ(clock.real(8.0), 4.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(1.0), 1.5);
}

TEST(HardwareClock, InverseRoundTrips) {
  util::Rng rng(5);
  auto clock = HardwareClock::random_walk(rng, 1.1, 0.3, 2.0, 50.0);
  for (double t = 0.0; t < 60.0; t += 0.37) {
    EXPECT_NEAR(clock.real(clock.local(t)), t, 1e-9) << "t=" << t;
  }
}

TEST(HardwareClock, TwoPhaseRamp) {
  // The Theorem-5 fast clock: rate ϑ until t*, then rate 1 with offset.
  const double vartheta = 1.05;
  const double u_tilde = 0.3;
  const double t_star = 2.0 * u_tilde / (3.0 * (vartheta - 1.0));
  const auto clock = HardwareClock::two_phase(vartheta, t_star, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(clock.local(0.0), 0.0);
  EXPECT_NEAR(clock.local(t_star), t_star + 2.0 * u_tilde / 3.0, 1e-9);
  // Past the ramp: H(t) = t + 2ũ/3.
  EXPECT_NEAR(clock.local(t_star + 5.0), t_star + 5.0 + 2.0 * u_tilde / 3.0,
              1e-9);
}

TEST(HardwareClock, TwoPhaseZeroSwitchDegeneratesToConstant) {
  const auto clock = HardwareClock::two_phase(2.0, 0.0, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(clock.rate_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(clock.local(3.0), 3.5);
}

TEST(HardwareClock, RandomWalkRespectsRateBounds) {
  util::Rng rng(17);
  const auto clock = HardwareClock::random_walk(rng, 1.2, 0.0, 1.0, 30.0);
  clock.check_valid(1.2);
  EXPECT_GE(clock.min_rate(), 1.0);
  EXPECT_LE(clock.max_rate(), 1.2);
}

TEST(HardwareClock, MonotoneAndDriftBounded) {
  util::Rng rng(23);
  const double vartheta = 1.08;
  const auto clock = HardwareClock::random_walk(rng, vartheta, 0.1, 0.5, 20.0);
  double prev = clock.local(0.0);
  for (double t = 0.01; t < 25.0; t += 0.01) {
    const double cur = clock.local(t);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
  // Global drift bound: t ≤ H(t) − H(0) ≤ ϑ t.
  for (double t : {1.0, 5.0, 19.0, 24.0}) {
    const double elapsed = clock.local(t) - clock.local(0.0);
    EXPECT_GE(elapsed, t - 1e-9);
    EXPECT_LE(elapsed, vartheta * t + 1e-9);
  }
}

TEST(HardwareClock, SegmentBoundariesExact) {
  std::vector<ClockSegment> segs;
  segs.push_back({0.0, 0.0, 1.0});
  segs.push_back({2.0, 2.0, 1.1});
  const HardwareClock clock(std::move(segs));
  EXPECT_DOUBLE_EQ(clock.local(2.0), 2.0);
  EXPECT_DOUBLE_EQ(clock.local(3.0), 2.0 + 1.1);
  EXPECT_NEAR(clock.real(2.0 + 1.1), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(clock.rate_at(1.999), 1.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(2.0), 1.1);
}

TEST(HardwareClock, RejectsDiscontinuousSegments) {
  std::vector<ClockSegment> segs;
  segs.push_back({0.0, 0.0, 1.0});
  segs.push_back({1.0, 5.0, 1.0});  // jump
  EXPECT_THROW(HardwareClock{std::move(segs)}, util::CheckFailure);
}

TEST(HardwareClock, RejectsNonPositiveRate) {
  std::vector<ClockSegment> segs;
  segs.push_back({0.0, 0.0, 0.0});
  EXPECT_THROW(HardwareClock{std::move(segs)}, util::CheckFailure);
}

TEST(HardwareClock, RejectsWrongStart) {
  std::vector<ClockSegment> segs;
  segs.push_back({1.0, 0.0, 1.0});
  EXPECT_THROW(HardwareClock{std::move(segs)}, util::CheckFailure);
}

TEST(HardwareClock, CheckValidFlagsOutOfRangeRate) {
  const auto clock = HardwareClock::constant(1.5, 0.0);
  EXPECT_THROW(clock.check_valid(1.2), util::CheckFailure);
  clock.check_valid(1.5);  // no throw
}

TEST(HardwareClock, RealBeforeOffsetRejected) {
  const auto clock = HardwareClock::constant(1.0, 2.0);
  EXPECT_THROW((void)clock.real(1.0), util::CheckFailure);
}

TEST(HardwareClock, TimerTimeFiresNowOncePassed) {
  const auto clock = HardwareClock::constant(2.0, 1.0);
  EXPECT_DOUBLE_EQ(clock.timer_time(5.0, 0.5), 2.0);  // H^{-1}(5)
  EXPECT_DOUBLE_EQ(clock.timer_time(5.0, 3.0), 3.0);  // already passed
  // At or below H(0), where real() is undefined, the timer fires now.
  EXPECT_DOUBLE_EQ(clock.timer_time(0.5, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(clock.timer_time(1.0, 0.0), 0.0);
}

TEST(MakeClocks, CustomClocksAreCheckedAgainstTheModel) {
  const util::Rng rng(3);
  const std::vector<HardwareClock> ok(2, HardwareClock::constant(1.0, 0.1));
  EXPECT_EQ(make_clocks(ClockKind::kCustom, 2, 1.01, 0.2, 30.0, rng, ok)
                .size(),
            2u);
  // Wrong count (the relay world passes none), a rate above vartheta, and
  // an offset beyond the initial-offset bound each throw.
  EXPECT_THROW((void)make_clocks(ClockKind::kCustom, 2, 1.01, 0.2, 30.0, rng),
               util::CheckFailure);
  const std::vector<HardwareClock> fast(2, HardwareClock::constant(1.5, 0.1));
  EXPECT_THROW(
      (void)make_clocks(ClockKind::kCustom, 2, 1.01, 0.2, 30.0, rng, fast),
      util::CheckFailure);
  const std::vector<HardwareClock> late(2, HardwareClock::constant(1.0, 0.3));
  EXPECT_THROW(
      (void)make_clocks(ClockKind::kCustom, 2, 1.01, 0.2, 30.0, rng, late),
      util::CheckFailure);
}

}  // namespace
}  // namespace crusader::sim
