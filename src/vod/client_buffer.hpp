// The client's two-stage buffering (§3): received frames enter a software
// buffer (fixed frame capacity; also the re-ordering window), from which
// they are streamed in display order into a hardware decoder buffer (fixed
// byte capacity). The decoder consumes one frame per display period.
//
// Accounting matches the paper's figures:
//  * late frames   — arrived after a later frame was already streamed into
//                    the decoder, or duplicates (Fig 4b),
//  * overflow      — discarded because the software buffer was full; the
//                    victim is an incremental frame when possible (Fig 5b),
//  * skipped       — never displayed (gaps observed at display time: lost,
//                    late-dropped or overflow-discarded; Figs 4a/5a).
//
// Both stages are flat rings of FrameInfo allocated when the buffer is built
// (DESIGN.md §5, frame-path layout), so a frame's arrival, transfer and display
// touch no heap and stay in a few cache lines of per-client state.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mpeg/frame.hpp"

namespace ftvod::vod {

struct BufferCounters {
  std::uint64_t received = 0;
  std::uint64_t late = 0;
  std::uint64_t overflow_discards = 0;
  std::uint64_t overflow_discarded_i_frames = 0;
  std::uint64_t skipped = 0;
  std::uint64_t displayed = 0;
  std::uint64_t starvation_ticks = 0;
};

class ClientBuffers {
 public:
  /// Throws std::invalid_argument for a zero software capacity: the
  /// re-ordering window must hold at least the frame being placed.
  ClientBuffers(std::size_t sw_capacity_frames, std::size_t hw_capacity_bytes,
                std::uint32_t avg_frame_bytes);

  /// A frame arrived from the network.
  void insert(const mpeg::FrameInfo& frame);

  /// One display period elapsed: the decoder consumes the next frame.
  /// Returns the displayed frame, or nullopt on starvation.
  std::optional<mpeg::FrameInfo> consume();

  /// Drops everything and repositions the stream (VCR random access).
  void flush_to(std::uint64_t next_expected_frame);

  // --- occupancy ----------------------------------------------------------
  [[nodiscard]] std::size_t sw_frames() const { return software_.size(); }
  [[nodiscard]] std::size_t hw_frames() const { return hardware_.size(); }
  [[nodiscard]] std::size_t hw_bytes() const { return hw_bytes_; }
  [[nodiscard]] std::size_t sw_capacity() const { return sw_capacity_; }
  [[nodiscard]] std::size_t hw_capacity_bytes() const {
    return hw_capacity_bytes_;
  }
  /// Total capacity expressed in frames (hardware estimated at the mean
  /// frame size), the denominator of the flow-control occupancy fraction.
  [[nodiscard]] std::size_t total_capacity_frames() const {
    return sw_capacity_ + hw_capacity_bytes_ / avg_frame_bytes_;
  }
  [[nodiscard]] std::size_t total_frames() const {
    return software_.size() + hardware_.size();
  }
  [[nodiscard]] double occupancy_fraction() const {
    return static_cast<double>(total_frames()) /
           static_cast<double>(total_capacity_frames());
  }
  /// Software-stage occupancy: the emergency thresholds watch this.
  [[nodiscard]] double sw_occupancy_fraction() const {
    return static_cast<double>(software_.size()) /
           static_cast<double>(sw_capacity_);
  }

  [[nodiscard]] const BufferCounters& counters() const { return counters_; }
  /// Index of the last frame handed to the display, or -1.
  [[nodiscard]] std::int64_t last_displayed() const { return last_displayed_; }

 private:
  /// A FIFO of frames in a power-of-two ring, addressable by position from
  /// the head. Positional insert and erase shift the elements behind the
  /// position, which is short when (as in a re-ordering window) they happen
  /// near the tail. Grows by doubling only when pushed while full.
  class FrameRing {
   public:
    explicit FrameRing(std::size_t min_capacity);

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    /// i-th element from the head; i < size().
    [[nodiscard]] const mpeg::FrameInfo& operator[](std::size_t i) const {
      return slots_[(head_ + i) & mask_];
    }
    [[nodiscard]] const mpeg::FrameInfo& front() const {
      return slots_[head_];
    }
    [[nodiscard]] const mpeg::FrameInfo& back() const {
      return (*this)[size_ - 1];
    }

    void push_back(const mpeg::FrameInfo& f);
    void pop_front() {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    /// Inserts before position i (i <= size()).
    void insert(std::size_t i, const mpeg::FrameInfo& f);
    /// Removes position i (i < size()).
    void erase(std::size_t i);
    void clear() {
      head_ = 0;
      size_ = 0;
    }

   private:
    mpeg::FrameInfo& at(std::size_t i) { return slots_[(head_ + i) & mask_]; }
    void grow();

    std::vector<mpeg::FrameInfo> slots_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  void transfer_to_hardware();

  std::size_t sw_capacity_;
  std::size_t hw_capacity_bytes_;
  std::uint32_t avg_frame_bytes_;

  /// Re-ordering window, sorted by frame index with no duplicates; holds at
  /// most sw_capacity_ frames, so it never grows past its first allocation.
  FrameRing software_;
  /// Decoder buffer in display order. Bounded by bytes, not frames, so it
  /// may grow (doubling) during warm-up; it never shrinks.
  FrameRing hardware_;
  std::size_t hw_bytes_ = 0;
  /// Highest frame index ever streamed into the hardware decoder; frames at
  /// or below it can no longer be re-ordered in and count as late.
  std::int64_t hw_horizon_ = -1;
  std::int64_t last_displayed_ = -1;

  BufferCounters counters_;
};

}  // namespace ftvod::vod
