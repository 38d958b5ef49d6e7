// Application-facing handle for membership in one lightweight group.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "gcs/types.hpp"
#include "util/codec.hpp"

namespace ftvod::gcs {

class Daemon;

struct GroupCallbacks {
  /// A totally-ordered multicast delivered to this group. `from` may be a
  /// non-member (the GCS supports sends into a group by outsiders, which
  /// the VoD client uses to contact the anonymous server group).
  std::function<void(const GcsEndpoint& from, std::span<const std::byte>)>
      on_message;
  /// A new membership for this group (join/leave or daemon view change).
  std::function<void(const GroupView&)> on_view;
};

/// RAII membership: destroying (or leave()-ing) the handle leaves the group.
class GroupMember {
 public:
  ~GroupMember();
  GroupMember(const GroupMember&) = delete;
  GroupMember& operator=(const GroupMember&) = delete;

  /// Multicasts to the group in agreed (total) order, self-delivery included.
  /// Returns before any callback runs; the self-delivery comes later.
  void send(util::Bytes payload);
  /// Leaves the group; the handle becomes inert at once and sees no view of
  /// its own departure. Returns before any callback runs.
  void leave();

  [[nodiscard]] GcsEndpoint endpoint() const { return endpoint_; }
  [[nodiscard]] const std::string& group() const { return group_; }
  /// Last delivered view of this group (empty before the join is ordered).
  [[nodiscard]] const GroupView& view() const { return last_view_; }
  [[nodiscard]] bool active() const { return daemon_ != nullptr; }

 private:
  friend class Daemon;
  GroupMember(Daemon& daemon, std::string group, GcsEndpoint endpoint,
              GroupCallbacks callbacks)
      : daemon_(&daemon),
        group_(std::move(group)),
        endpoint_(endpoint),
        callbacks_(std::move(callbacks)) {}

  Daemon* daemon_;
  std::string group_;
  GcsEndpoint endpoint_;
  GroupCallbacks callbacks_;
  GroupView last_view_;
};

}  // namespace ftvod::gcs
