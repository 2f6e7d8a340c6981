#include "net/frame_arena.h"

#include <algorithm>

namespace rmc::net {

FrameArena& FrameArena::instance() {
  static thread_local FrameArena arena;
  return arena;
}

FrameArena::~FrameArena() {
  for (detail::PayloadBlock* block : free_) {
    ::operator delete(static_cast<void*>(block));
  }
}

detail::PayloadBlock* FrameArena::acquire(std::size_t size) {
  RMC_ENSURE(size <= UINT32_MAX, "payload exceeds block addressing");
  detail::PayloadBlock* block = nullptr;
  if (size <= kStandardCapacity && !free_.empty()) {
    block = free_.back();
    free_.pop_back();
    ++stats_.blocks_reused;
  } else {
    const std::size_t capacity = std::max(size, kStandardCapacity);
    void* raw = ::operator new(sizeof(detail::PayloadBlock) + capacity);
    block = ::new (raw) detail::PayloadBlock;
    block->capacity = static_cast<std::uint32_t>(capacity);
    block->arena = this;
    ++stats_.blocks_created;
    if (capacity > kStandardCapacity) ++stats_.oversize_blocks;
  }
  block->refs = 1;
  block->size = static_cast<std::uint32_t>(size);
  ++outstanding_;
  return block;
}

void FrameArena::recycle(detail::PayloadBlock* block) {
  --outstanding_;
  if (block->capacity == kStandardCapacity) {
    free_.push_back(block);
  } else {
    // Oversize blocks hold whole datagrams over one MTU: the block a
    // protocol serializes a large packet into on send, and the block a
    // fragmented datagram is reassembled into on receive. They vary in
    // size, so they are freed here, keeping the free list homogeneous so
    // acquire() never has to size-match.
    block->~PayloadBlock();
    ::operator delete(static_cast<void*>(block));
  }
}

PayloadRef PayloadRef::allocate(std::size_t size) {
  return PayloadRef(FrameArena::instance().acquire(size));
}

PayloadRef PayloadRef::copy_of(BytesView bytes) {
  PayloadRef ref = allocate(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(ref.block_->data(), bytes.data(), bytes.size());
  }
  return ref;
}

std::uint8_t* PayloadRef::mutable_data() {
  RMC_ENSURE(block_ != nullptr, "mutable_data on an empty payload");
  if (block_->refs > 1) {
    FrameArena& arena = *block_->arena;
    detail::PayloadBlock* copy = arena.acquire(block_->size);
    std::memcpy(copy->data(), block_->data(), block_->size);
    ++arena.stats_.copies_on_write;
    --block_->refs;
    block_ = copy;
  }
  return block_->data();
}

void PayloadRef::release() {
  if (block_ == nullptr) return;
  if (--block_->refs == 0) block_->arena->recycle(block_);
  block_ = nullptr;
}

}  // namespace rmc::net
