#include "vod/client_buffer.hpp"

#include <algorithm>
#include <bit>
#include <ranges>
#include <stdexcept>

namespace ftvod::vod {

namespace {
/// The decoder ring starts at its byte capacity over the mean frame size,
/// but no larger: a degenerate mean (tiny frames) must not reserve
/// megabytes per client up front. It grows on demand past this.
constexpr std::size_t kMaxInitialHwFrames = 256;
}  // namespace

ClientBuffers::FrameRing::FrameRing(std::size_t min_capacity)
    : slots_(std::bit_ceil(std::max<std::size_t>(min_capacity, 1))),
      mask_(slots_.size() - 1) {}

void ClientBuffers::FrameRing::push_back(const mpeg::FrameInfo& f) {
  if (size_ == slots_.size()) grow();
  at(size_) = f;
  ++size_;
}

void ClientBuffers::FrameRing::insert(std::size_t i,
                                      const mpeg::FrameInfo& f) {
  if (size_ == slots_.size()) grow();
  for (std::size_t j = size_; j > i; --j) at(j) = at(j - 1);
  at(i) = f;
  ++size_;
}

void ClientBuffers::FrameRing::erase(std::size_t i) {
  for (std::size_t j = i + 1; j < size_; ++j) at(j - 1) = at(j);
  --size_;
}

void ClientBuffers::FrameRing::grow() {
  std::vector<mpeg::FrameInfo> wider(slots_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) wider[i] = (*this)[i];
  slots_.swap(wider);
  mask_ = slots_.size() - 1;
  head_ = 0;
}

ClientBuffers::ClientBuffers(std::size_t sw_capacity_frames,
                             std::size_t hw_capacity_bytes,
                             std::uint32_t avg_frame_bytes)
    : sw_capacity_(sw_capacity_frames),
      hw_capacity_bytes_(hw_capacity_bytes),
      avg_frame_bytes_(avg_frame_bytes == 0 ? 1 : avg_frame_bytes),
      software_(sw_capacity_frames),
      hardware_(std::min(hw_capacity_bytes / avg_frame_bytes_ + 1,
                         kMaxInitialHwFrames)) {
  if (sw_capacity_ == 0) {
    throw std::invalid_argument("ClientBuffers: zero software capacity");
  }
}

void ClientBuffers::insert(const mpeg::FrameInfo& frame) {
  ++counters_.received;

  // Too late to re-order in: the decoder moved past it.
  if (static_cast<std::int64_t>(frame.index) <= hw_horizon_) {
    ++counters_.late;
    return;
  }

  // Where the frame goes in the sorted window: in-order arrivals append, a
  // re-ordered one is placed by binary search (and is late if a duplicate).
  std::size_t pos = software_.size();
  if (pos > 0 && software_.back().index >= frame.index) {
    pos = *std::ranges::partition_point(
        std::views::iota(std::size_t{0}, pos),
        [&](std::size_t i) { return software_[i].index < frame.index; });
    if (software_[pos].index == frame.index) {
      ++counters_.late;
      return;
    }
  }

  if (software_.size() >= sw_capacity_) {
    // Overflow: make room by discarding the furthest-from-display
    // incremental frame; fall back to an I frame only when the whole buffer
    // is I frames (§3: "when possible we discard an incremental frame").
    std::size_t victim = software_.size();
    for (std::size_t i = software_.size(); i-- > 0;) {
      if (software_[i].type != mpeg::FrameType::kI) {
        victim = i;
        break;
      }
    }
    ++counters_.overflow_discards;
    if (victim == software_.size()) {
      // All buffered frames are I frames. Keep them: if the incoming frame
      // is incremental, discard it instead; otherwise evict the furthest I.
      if (frame.type != mpeg::FrameType::kI) {
        return;  // incoming frame dropped
      }
      victim = software_.size() - 1;
      ++counters_.overflow_discarded_i_frames;
    }
    software_.erase(victim);
    if (victim < pos) --pos;
  }

  software_.insert(pos, frame);
  transfer_to_hardware();
}

void ClientBuffers::transfer_to_hardware() {
  while (!software_.empty()) {
    const mpeg::FrameInfo& head = software_.front();
    if (hw_bytes_ + head.size_bytes > hw_capacity_bytes_ &&
        !hardware_.empty()) {
      break;  // decoder buffer full
    }
    hardware_.push_back(head);
    hw_bytes_ += head.size_bytes;
    hw_horizon_ = static_cast<std::int64_t>(head.index);
    software_.pop_front();
  }
}

std::optional<mpeg::FrameInfo> ClientBuffers::consume() {
  if (hardware_.empty()) {
    ++counters_.starvation_ticks;
    return std::nullopt;
  }
  const mpeg::FrameInfo frame = hardware_.front();
  hardware_.pop_front();
  hw_bytes_ -= frame.size_bytes;

  const auto idx = static_cast<std::int64_t>(frame.index);
  if (last_displayed_ >= 0 && idx > last_displayed_ + 1) {
    // Display-order gap: those frames will never be shown.
    counters_.skipped += static_cast<std::uint64_t>(idx - last_displayed_ - 1);
  }
  last_displayed_ = idx;
  ++counters_.displayed;

  transfer_to_hardware();
  return frame;
}

void ClientBuffers::flush_to(std::uint64_t next_expected_frame) {
  software_.clear();
  hardware_.clear();
  hw_bytes_ = 0;
  hw_horizon_ = static_cast<std::int64_t>(next_expected_frame) - 1;
  last_displayed_ = static_cast<std::int64_t>(next_expected_frame) - 1;
}

}  // namespace ftvod::vod
