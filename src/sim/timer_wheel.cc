#include "sim/timer_wheel.h"

#include <algorithm>
#include <bit>

#include "common/panic.h"

namespace rmc::sim {

namespace {

// Execution order: earlier time first, then scheduling order.
bool runs_before(const EventRecord& a, const EventRecord& b) {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}

}  // namespace

int TimerWheel::level_for(Time at) const {
  const std::uint64_t a = static_cast<std::uint64_t>(at);
  const std::uint64_t b = static_cast<std::uint64_t>(base_);
  for (int level = 0; level < kLevels; ++level) {
    if ((a >> shift(level)) - (b >> shift(level)) < kSlots) return level;
  }
  return kLevels;
}

void TimerWheel::insert(std::uint32_t idx) {
  EventRecord& rec = pool_.at(idx);
  RMC_ENSURE(rec.at >= base_, "event linked before the wheel's base time");
  const int level = level_for(rec.at);
  if (level >= kLevels) {
    rec.level = kLevels;
    overflow_.push_back(idx);
    overflow_min_ = std::min(overflow_min_, rec.at);
    return;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(rec.at) >> shift(level)) & kSlotMask;
  if (level == 0) {
    link_level0_sorted(slot, idx);
  } else {
    link(level, slot, idx);
  }
}

void TimerWheel::link(int level, std::uint32_t slot, std::uint32_t idx) {
  EventRecord& rec = pool_.at(idx);
  rec.level = static_cast<std::uint8_t>(level);
  rec.slot = static_cast<std::uint8_t>(slot);
  rec.next = kNilIndex;
  rec.prev = tails_[level][slot];
  if (rec.prev == kNilIndex) {
    heads_[level][slot] = idx;
  } else {
    pool_.at(rec.prev).next = idx;
  }
  tails_[level][slot] = idx;
  occupied_[level] |= 1ull << slot;
}

void TimerWheel::link_level0_sorted(std::uint32_t slot, std::uint32_t idx) {
  // A level-0 slot spans 2^kL0Shift ns and is kept sorted by (at, seq).
  // Walk back from the tail to the last record that runs before this one.
  // A freshly scheduled event carries the largest seq and usually the
  // latest time in its slot, so the walk is usually empty.
  EventRecord& rec = pool_.at(idx);
  std::uint32_t before = tails_[0][slot];
  while (before != kNilIndex && runs_before(rec, pool_.at(before))) {
    before = pool_.at(before).prev;
  }
  if (before == tails_[0][slot]) {
    link(0, slot, idx);
    return;
  }
  rec.level = 0;
  rec.slot = static_cast<std::uint8_t>(slot);
  rec.prev = before;
  if (before == kNilIndex) {
    rec.next = heads_[0][slot];
    heads_[0][slot] = idx;
  } else {
    rec.next = pool_.at(before).next;
    pool_.at(before).next = idx;
  }
  pool_.at(rec.next).prev = idx;  // not the tail, so a successor exists
}

void TimerWheel::unlink(std::uint32_t idx) {
  EventRecord& rec = pool_.at(idx);
  std::uint32_t& head = heads_[rec.level][rec.slot];
  std::uint32_t& tail = tails_[rec.level][rec.slot];
  if (rec.prev == kNilIndex) {
    head = rec.next;
  } else {
    pool_.at(rec.prev).next = rec.next;
  }
  if (rec.next == kNilIndex) {
    tail = rec.prev;
  } else {
    pool_.at(rec.next).prev = rec.prev;
  }
  if (head == kNilIndex) occupied_[rec.level] &= ~(1ull << rec.slot);
  rec.next = kNilIndex;
  rec.prev = kNilIndex;
}

void TimerWheel::remove(std::uint32_t idx) {
  if (pool_.at(idx).level >= kLevels) return;  // overflow: released on migration
  unlink(idx);
  pool_.release(idx);
}

std::uint32_t TimerWheel::unlink_all(int level, std::uint32_t slot) {
  const std::uint32_t head = heads_[level][slot];
  heads_[level][slot] = kNilIndex;
  tails_[level][slot] = kNilIndex;
  occupied_[level] &= ~(1ull << slot);
  return head;
}

void TimerWheel::cascade(int level, std::uint32_t slot, Time slot_start) {
  // Safe to advance: slot_start was the minimum candidate over every
  // level, so no armed record is due before it.
  base_ = slot_start;
  std::uint32_t idx = unlink_all(level, slot);
  while (idx != kNilIndex) {
    const std::uint32_t next = pool_.at(idx).next;
    insert(idx);  // lands at a strictly lower level
    idx = next;
  }
}

bool TimerWheel::migrate_overflow(Time wheel_candidate) {
  if (overflow_.empty()) return false;
  if (wheel_candidate == kNever) {
    // The wheel proper is empty: jump straight to the overflow region.
    // overflow_min_ may be the time of a since-cancelled record, which is
    // still a valid lower bound for every armed one.
    base_ = std::max(base_, overflow_min_);
  }
  bool moved = false;
  Time new_min = kNever;
  std::vector<std::uint32_t> keep;
  keep.reserve(overflow_.size());
  for (std::uint32_t idx : overflow_) {
    EventRecord& rec = pool_.at(idx);
    if (!rec.armed) {
      pool_.release(idx);
      moved = true;
    } else if (level_for(rec.at) < kLevels) {
      insert(idx);
      moved = true;
    } else {
      new_min = std::min(new_min, rec.at);
      keep.push_back(idx);
    }
  }
  overflow_.swap(keep);
  overflow_min_ = new_min;
  return moved;
}

std::uint32_t TimerWheel::find_next() {
  for (;;) {
    int best_level = -1;
    std::uint32_t best_slot = 0;
    Time best_time = kNever;
    for (int level = 0; level < kLevels; ++level) {
      if (occupied_[level] == 0) continue;
      const std::uint64_t qb = static_cast<std::uint64_t>(base_) >> shift(level);
      const std::uint32_t c = static_cast<std::uint32_t>(qb) & kSlotMask;
      const int d = std::countr_zero(std::rotr(occupied_[level], static_cast<int>(c)));
      const std::uint64_t q = qb + static_cast<std::uint64_t>(d);
      Time t = static_cast<Time>(q << shift(level));
      if (t < base_) t = base_;  // current, partially elapsed slot
      // On ties prefer the coarser level so its records cascade down and
      // contend by exact (at, seq) before anything executes. A coarser
      // slot that starts after the level-0 candidate starts at least one
      // level-0 slot later, so it cannot hold anything due before the
      // level-0 slot's head.
      if (t < best_time || (t == best_time && level > best_level)) {
        best_time = t;
        best_level = level;
        best_slot = (c + static_cast<std::uint32_t>(d)) & kSlotMask;
      }
    }
    if (best_level < 0) {
      if (overflow_.empty()) return kNilIndex;
      migrate_overflow(kNever);
      continue;
    }
    if (overflow_min_ <= best_time) {
      // An overflow record may be due before the wheel's earliest slot;
      // anything that early necessarily fits the horizon now.
      migrate_overflow(best_time);
      continue;
    }
    if (best_level > 0) {
      cascade(best_level, best_slot, best_time);
      continue;
    }
    const std::uint32_t head = heads_[0][best_slot];
    base_ = pool_.at(head).at;
    return head;
  }
}

void TimerWheel::extract_front(std::uint32_t idx) {
  const EventRecord& rec = pool_.at(idx);
  RMC_ENSURE(rec.level == 0 && heads_[0][rec.slot] == idx,
             "extract_front on a non-front record");
  unlink(idx);
}

Time TimerWheel::next_time() {
  const std::uint32_t idx = find_next();
  return idx == kNilIndex ? kNever : pool_.at(idx).at;
}

}  // namespace rmc::sim
