#pragma once

/// \file meta_index.h
/// The meta-index: video meta-data projected into column-store tables so
/// the digital library engine can query it relationally ("managing the
/// meta-index now boils down to exploiting the dependencies in the feature
/// grammar", paper §3).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/video_description.h"
#include "storage/ops.h"
#include "storage/table.h"

namespace cobra::core {

/// A video scene answering a content-based query.
struct Scene {
  int64_t video_id = 0;
  FrameInterval range;
  int64_t player = -1;       ///< acting player, -1 = court-level
  std::string event;         ///< event symbol ("net_play", ...)
};

/// Columnar projection of VideoDescriptions.
///
/// Tables:
///   shots  (video_id, begin, end, category, dominant_ratio, skin_ratio,
///           entropy)
///   objects(video_id, begin, end, player, observed_fraction, mean_area,
///           mean_eccentricity)
///   events (video_id, name, player, begin, end)
class MetaIndex {
 public:
  /// Creates the empty tables.
  static Result<MetaIndex> Create();

  /// Reassembles an index from persisted tables. Schemas must match the
  /// layouts documented above (validated against Create()'s); the video
  /// count is persisted separately since empty videos add no rows. The
  /// per-video event rows (EventRows) are rebuilt from the events table.
  static Result<MetaIndex> FromTables(storage::Table shots,
                                      storage::Table objects,
                                      storage::Table events,
                                      int64_t num_videos);

  /// Loads every layer of `desc` into the tables.
  Status AddVideo(const VideoDescription& desc);

  const storage::Table& shots() const { return shots_; }
  const storage::Table& objects() const { return objects_; }
  const storage::Table& events() const { return events_; }

  int64_t num_videos() const { return num_videos_; }

  /// Rows of the events table describing `video_id`, ascending (row
  /// order); empty for a video with no events or none indexed. A video
  /// described twice holds both descriptions' rows, which need not be
  /// contiguous. The planner's event stage reads a video's events through
  /// this instead of scanning the table.
  const std::vector<int64_t>& EventRows(int64_t video_id) const;

  /// Scenes showing `event_name`, optionally restricted to one video
  /// (video_id >= 0) and/or one player (player >= 0), in row order. A plain
  /// table scan: it does not read EventRows.
  Result<std::vector<Scene>> FindScenes(const std::string& event_name,
                                        int64_t video_id = -1,
                                        int64_t player = -1) const;

  /// Shot intervals of a category ("tennis", "close-up", ...) in a video.
  Result<std::vector<FrameInterval>> FindShots(const std::string& category,
                                               int64_t video_id) const;

 private:
  MetaIndex(storage::Table shots, storage::Table objects, storage::Table events)
      : shots_(std::move(shots)),
        objects_(std::move(objects)),
        events_(std::move(events)) {}

  storage::Table shots_;
  storage::Table objects_;
  storage::Table events_;
  int64_t num_videos_ = 0;
  /// video id -> its events-table rows, ascending.
  std::unordered_map<int64_t, std::vector<int64_t>> event_rows_;
};

}  // namespace cobra::core
