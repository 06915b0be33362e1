#include "detectors/player_tracker.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/strings.h"
#include "vision/mask.h"

namespace cobra::detectors {

namespace {

/// Court lines are near-white: every channel above 185, i.e. the color box
/// [186, 255]^3 (the old IsLineWhite predicate in batch-kernel form).
constexpr vision::kernels::ColorBox kLineWhiteBox{{186, 186, 186},
                                                  {255, 255, 255}};

/// The background color boxes a foreground (player) pixel must avoid:
/// court surface, out-of-court surround, and court lines. Hoisted once per
/// tracked shot so segmentation is pure byte compares.
struct BackgroundBoxes {
  vision::kernels::ColorBox boxes[3];

  BackgroundBoxes(const CourtModel& court, double k)
      : boxes{court.court_color.MatchBox(k), court.surround_color.MatchBox(k),
              kLineWhiteBox} {}
};

/// Segments foreground regions within `roi` and returns components sorted
/// by decreasing area. Foreground = neither court surface, nor out-of-court
/// background, nor a court line. The mask stores `roi` only, so the opening
/// and the labeling cost O(roi area), not O(frame area).
std::vector<vision::ConnectedComponent> SegmentForeground(
    const media::Frame& frame, const RectI& roi, const BackgroundBoxes& bg,
    int64_t min_area) {
  vision::BinaryMask mask =
      vision::BinaryMask::FromOutsideColorBoxes(frame, roi, bg.boxes, 3);
  // Opening removes single-pixel noise and the thin net band.
  return vision::LabelComponents(mask.Open(), min_area);
}

/// Picks the component whose centroid is closest to `target`, or nullopt.
std::optional<vision::ConnectedComponent> ClosestComponent(
    std::vector<vision::ConnectedComponent> components, const PointD& target) {
  if (components.empty()) return std::nullopt;
  auto best = std::min_element(
      components.begin(), components.end(),
      [&](const vision::ConnectedComponent& a, const vision::ConnectedComponent& b) {
        return a.centroid.DistanceTo(target) < b.centroid.DistanceTo(target);
      });
  return std::move(*best);
}

}  // namespace

double PlayerTrack::ObservedFraction() const {
  if (points.empty()) return 0.0;
  int64_t observed = 0;
  for (const TrackPoint& p : points) {
    if (!p.predicted_only) ++observed;
  }
  return static_cast<double>(observed) / static_cast<double>(points.size());
}

bool PlayerTrack::CenterAt(int64_t frame, PointD* out) const {
  for (const TrackPoint& p : points) {
    if (p.frame == frame) {
      *out = p.center;
      return true;
    }
  }
  return false;
}

PlayerTracker::PlayerTracker(PlayerTrackerConfig config) : config_(config) {}

Result<TrackingResult> PlayerTracker::Track(const media::VideoSource& video,
                                            const FrameInterval& shot) const {
  if (shot.Empty() || shot.begin < 0 || shot.end >= video.num_frames()) {
    return Status::InvalidArgument(
        StringFormat("shot %s out of video bounds", shot.ToString().c_str()));
  }

  // Decoded frames come from the shared cache when attached (the
  // classifier usually decoded them already); otherwise decode locally.
  auto frame_at =
      [&](int64_t f) -> Result<std::shared_ptr<const media::Frame>> {
    if (cache_ != nullptr) return cache_->GetFrame(f, 1);
    COBRA_ASSIGN_OR_RETURN(media::Frame frame, video.GetFrame(f));
    return std::make_shared<const media::Frame>(std::move(frame));
  };

  TrackingResult result;
  COBRA_ASSIGN_OR_RETURN(std::shared_ptr<const media::Frame> first_ptr,
                         frame_at(shot.begin));
  const media::Frame& first = *first_ptr;
  COBRA_ASSIGN_OR_RETURN(result.court, EstimateCourtModel(first, config_.court));
  const CourtModel& court = result.court;

  RectI roi =
      RectI{court.court_bbox.x - config_.court_margin,
            court.court_bbox.y - config_.court_margin_top,
            court.court_bbox.width + 2 * config_.court_margin,
            court.court_bbox.height + config_.court_margin_top +
                config_.court_margin}
          .ClipTo(first.width(), first.height());

  const BackgroundBoxes bg(court, config_.foreground_k);

  // Initial segmentation of the first frame: the paper's "quadratic"
  // split — the largest region in the near (lower) half and the largest in
  // the far (upper) half become the two players.
  auto components = SegmentForeground(first, roi, bg, config_.min_player_area);
  struct PlayerState {
    PlayerTrack track;
    PointD velocity;
    RectI last_bbox;
    int lost = 0;
    bool alive = false;
  };
  PlayerState players[2];
  players[0].track.player_id = 0;
  players[1].track.player_id = 1;

  for (int id = 0; id < 2; ++id) {
    const bool near_half = (id == 0);
    for (const auto& c : components) {
      bool in_half = near_half ? c.centroid.y > court.net_y
                               : c.centroid.y <= court.net_y;
      if (!in_half) continue;
      TrackPoint tp;
      tp.frame = shot.begin;
      tp.center = c.centroid;
      tp.bbox = c.bbox;
      tp.features = vision::ComputeShapeFeatures(first, c);
      players[id].track.points.push_back(tp);
      players[id].last_bbox = c.bbox;
      players[id].alive = true;
      break;  // components are sorted by area: first hit is the largest
    }
  }

  // Predictive tracking through the rest of the shot.
  for (int64_t f = shot.begin + 1; f <= shot.end; ++f) {
    COBRA_ASSIGN_OR_RETURN(std::shared_ptr<const media::Frame> frame_ptr,
                           frame_at(f));
    const media::Frame& frame = *frame_ptr;
    for (PlayerState& ps : players) {
      if (!ps.alive) continue;
      const TrackPoint& last = ps.track.points.back();
      PointD predicted = last.center + ps.velocity;

      RectI window{
          static_cast<int>(predicted.x) - ps.last_bbox.width / 2 -
              config_.search_margin,
          static_cast<int>(predicted.y) - ps.last_bbox.height / 2 -
              config_.search_margin,
          ps.last_bbox.width + 2 * config_.search_margin,
          ps.last_bbox.height + 2 * config_.search_margin};
      window = window.Intersect(roi);

      auto candidates =
          SegmentForeground(frame, window, bg, config_.min_player_area);
      std::optional<vision::ConnectedComponent> hit =
          ClosestComponent(std::move(candidates), predicted);

      if (!hit && ++ps.lost > config_.max_lost_frames) {
        // Re-acquire anywhere in this player's half of the ROI.
        RectI half = roi;
        if (ps.track.player_id == 0) {
          half.height = roi.Bottom() - court.net_y;
          half.y = court.net_y;
        } else {
          half.height = court.net_y - roi.y;
        }
        hit = ClosestComponent(
            SegmentForeground(frame, half, bg, config_.min_player_area),
            predicted);
      }

      TrackPoint tp;
      tp.frame = f;
      if (hit) {
        tp.center = hit->centroid;
        tp.bbox = hit->bbox;
        tp.features = vision::ComputeShapeFeatures(frame, *hit);
        if (last.predicted_only) {
          // Re-acquired after coasting: the previous point is a stale
          // prediction, so a finite difference against it is meaningless.
          ps.velocity = PointD{0, 0};
        } else {
          // Damped finite difference, clamped so one noisy association
          // cannot fling the search window off the player.
          ps.velocity = (tp.center - last.center) * 0.5;
          double norm = ps.velocity.Norm();
          constexpr double kMaxVelocity = 12.0;
          if (norm > kMaxVelocity) {
            ps.velocity = ps.velocity * (kMaxVelocity / norm);
          }
        }
        ps.last_bbox = hit->bbox;
        ps.lost = 0;
      } else {
        tp.center = predicted;
        tp.bbox = window;
        tp.predicted_only = true;
      }
      ps.track.points.push_back(tp);
    }
  }

  for (PlayerState& ps : players) {
    if (ps.alive) result.tracks.push_back(std::move(ps.track));
  }
  result.frames_processed = shot.Length();
  return result;
}

}  // namespace cobra::detectors
