// Hierarchical timer wheel over pooled event records.
//
// Eight levels of 64 slots each. A level-0 slot is 2^kL0Shift ns (~1 µs)
// wide and level L's slots are 2^(kL0Shift + 6L) ns wide, so level L
// buckets events whose quantized distance from the wheel's base time fits
// in 64 of its slots; that covers deltas up to 2^kHorizonBits ns (~9
// years) before spilling into an overflow list. Finding the next event is
// a handful of bitmap rotations; when a coarse slot comes due its records
// cascade down one level at a time until they surface in level 0. A
// level-0 slot keeps its records sorted by (at, seq), so its head is
// always the slot's earliest event and equal times run in scheduling
// order, preserving the simulator's FIFO-at-equal-time determinism
// contract exactly.
//
// Why ~1 µs and not 1 ns: with one-nanosecond level-0 slots, an event a
// few tens of µs out (a frame's serialization time) lands in level 1 or 2
// and is re-linked two or three times before it runs. With µs-wide slots
// the same event is linked straight into level 0 and most cascades are one
// or two inserts. The price is a sorted insert inside the slot. It walks
// back from the tail, so it costs one step per live record due after the
// new one in the same slot: none for the usual freshly scheduled event.
//
// Slot lists are doubly linked, so cancelling unlinks and recycles the
// record at once (O(1)). The cancel/re-arm pattern of retransmission and
// poll timers therefore never leaves dead records for a walk or a cascade
// to step over, and never touches a heap or a hash table.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_pool.h"
#include "sim/time.h"

namespace rmc::sim {

class TimerWheel {
 public:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;        // 64
  static constexpr std::uint32_t kSlotMask = kSlots - 1;
  static constexpr int kL0Shift = 10;                  // level-0 slot: 1024 ns
  static constexpr int kLevels = 8;
  static constexpr int kHorizonBits = kL0Shift + kSlotBits * kLevels;  // 2^58 ns

  // log2 of one slot's width at `level`, in ns.
  static constexpr int shift(int level) { return kL0Shift + kSlotBits * level; }

  explicit TimerWheel(EventPool& pool) : pool_(pool) {
    for (auto& h : heads_) h.fill(kNilIndex);
    for (auto& t : tails_) t.fill(kNilIndex);
    occupied_.fill(0);
  }
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Links an armed record (with `at` and `seq` already set) into the
  // wheel. `at` must be >= base().
  void insert(std::uint32_t idx);

  // Takes a cancelled (disarmed) record out of the wheel and releases it
  // to the pool. A record past the horizon is released when the overflow
  // list is next migrated instead.
  void remove(std::uint32_t idx);

  // Index of the next record to execute — the armed record with the
  // smallest (at, seq) — after cascading whatever coarse slots stand in
  // the way. Returns kNilIndex if no armed record remains. The record is
  // left linked; call extract_front() to detach it.
  std::uint32_t find_next();

  // Detaches the record find_next() returned (it must still be the level-0
  // front). The caller owns releasing it back to the pool.
  void extract_front(std::uint32_t idx);

  // Earliest armed event time, or kNever. Same cascading as find_next.
  Time next_time();

  Time base() const { return base_; }

 private:
  // Smallest level whose 64-slot window around base_ still contains `at`.
  // Returns kLevels for deltas beyond the horizon (overflow).
  int level_for(Time at) const;
  void link(int level, std::uint32_t slot, std::uint32_t idx);
  void link_level0_sorted(std::uint32_t slot, std::uint32_t idx);
  void unlink(std::uint32_t idx);
  std::uint32_t unlink_all(int level, std::uint32_t slot);
  void cascade(int level, std::uint32_t slot, Time slot_start);
  bool migrate_overflow(Time wheel_candidate);

  EventPool& pool_;
  Time base_ = 0;  // all linked records have at >= base_
  std::array<std::array<std::uint32_t, kSlots>, kLevels> heads_;
  std::array<std::array<std::uint32_t, kSlots>, kLevels> tails_;
  std::array<std::uint64_t, kLevels> occupied_;
  // Events farther than the horizon. Practically never populated; kept
  // correct by migrating back into the wheel whenever one could be due
  // before anything the wheel holds.
  std::vector<std::uint32_t> overflow_;
  Time overflow_min_ = kNever;
};

}  // namespace rmc::sim
