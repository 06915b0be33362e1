#include "core/meta_index.h"

namespace cobra::core {

using storage::CompareOp;
using storage::DataType;
using storage::Predicate;
using storage::Table;
using storage::Value;

Result<MetaIndex> MetaIndex::Create() {
  COBRA_ASSIGN_OR_RETURN(
      Table shots, Table::Create({{"video_id", DataType::kInt64},
                                  {"begin", DataType::kInt64},
                                  {"end", DataType::kInt64},
                                  {"category", DataType::kString},
                                  {"dominant_ratio", DataType::kDouble},
                                  {"skin_ratio", DataType::kDouble},
                                  {"entropy", DataType::kDouble}}));
  COBRA_ASSIGN_OR_RETURN(
      Table objects, Table::Create({{"video_id", DataType::kInt64},
                                    {"begin", DataType::kInt64},
                                    {"end", DataType::kInt64},
                                    {"player", DataType::kInt64},
                                    {"observed_fraction", DataType::kDouble},
                                    {"mean_area", DataType::kDouble},
                                    {"mean_eccentricity", DataType::kDouble}}));
  COBRA_ASSIGN_OR_RETURN(Table events,
                         Table::Create({{"video_id", DataType::kInt64},
                                        {"name", DataType::kString},
                                        {"player", DataType::kInt64},
                                        {"begin", DataType::kInt64},
                                        {"end", DataType::kInt64}}));
  return MetaIndex(std::move(shots), std::move(objects), std::move(events));
}

Result<MetaIndex> MetaIndex::FromTables(Table shots, Table objects,
                                        Table events, int64_t num_videos) {
  COBRA_ASSIGN_OR_RETURN(MetaIndex empty, Create());
  auto same_schema = [](const Table& got, const Table& want) {
    if (got.schema().size() != want.schema().size()) return false;
    for (size_t i = 0; i < got.schema().size(); ++i) {
      if (got.schema()[i].name != want.schema()[i].name ||
          got.schema()[i].type != want.schema()[i].type) {
        return false;
      }
    }
    return true;
  };
  if (!same_schema(shots, empty.shots_) ||
      !same_schema(objects, empty.objects_) ||
      !same_schema(events, empty.events_)) {
    return Status::InvalidArgument("restored meta-index table schema mismatch");
  }
  if (num_videos < 0) {
    return Status::InvalidArgument("negative video count");
  }
  MetaIndex index(std::move(shots), std::move(objects), std::move(events));
  index.num_videos_ = num_videos;
  const std::vector<int64_t>& vids = index.events_.IntColumn(0);
  for (size_t r = 0; r < vids.size(); ++r) {
    index.event_rows_[vids[r]].push_back(static_cast<int64_t>(r));
  }
  return index;
}

Status MetaIndex::AddVideo(const VideoDescription& desc) {
  const int64_t vid = desc.video_id();
  for (const grammar::Annotation& a : desc.Layer(CobraLayer::kFeature)) {
    if (a.symbol != "segment") continue;
    COBRA_RETURN_NOT_OK(shots_.AppendRow(
        {vid, a.range.begin, a.range.end, a.StringOr("category", "other"),
         a.DoubleOr("dominant_ratio", 0.0), a.DoubleOr("skin_ratio", 0.0),
         a.DoubleOr("entropy", 0.0)}));
  }
  for (const grammar::Annotation& a : desc.Layer(CobraLayer::kObject)) {
    if (a.symbol != "features") continue;
    COBRA_RETURN_NOT_OK(objects_.AppendRow(
        {vid, a.range.begin, a.range.end, a.IntOr("player", -1),
         a.DoubleOr("observed_fraction", 0.0), a.DoubleOr("mean_area", 0.0),
         a.DoubleOr("mean_eccentricity", 0.0)}));
  }
  std::vector<int64_t>& rows = event_rows_[vid];
  for (const grammar::Annotation& a : desc.Layer(CobraLayer::kEvent)) {
    const int64_t row = events_.num_rows();
    COBRA_RETURN_NOT_OK(events_.AppendRow(
        {vid, a.symbol, a.IntOr("player", -1), a.range.begin, a.range.end}));
    rows.push_back(row);
  }
  ++num_videos_;
  return Status::OK();
}

const std::vector<int64_t>& MetaIndex::EventRows(int64_t video_id) const {
  static const std::vector<int64_t> kNone;
  auto it = event_rows_.find(video_id);
  return it == event_rows_.end() ? kNone : it->second;
}

Result<std::vector<Scene>> MetaIndex::FindScenes(const std::string& event_name,
                                                 int64_t video_id,
                                                 int64_t player) const {
  std::vector<Predicate> preds = {
      Predicate{"name", CompareOp::kEq, event_name}};
  if (video_id >= 0) {
    preds.push_back(Predicate{"video_id", CompareOp::kEq, video_id});
  }
  if (player >= 0) {
    preds.push_back(Predicate{"player", CompareOp::kEq, player});
  }
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                         storage::SelectAll(events_, preds));
  // Hoisted typed columns: materializing a scene is four array reads plus
  // one string copy, not five checked GetValue round trips.
  const auto& vids = events_.IntColumn(0);
  const auto& names = events_.StringColumn(1);
  const auto& players = events_.IntColumn(2);
  const auto& begins = events_.IntColumn(3);
  const auto& ends = events_.IntColumn(4);
  std::vector<Scene> out;
  out.reserve(rows.size());
  for (int64_t r : rows) {
    const size_t i = static_cast<size_t>(r);
    Scene scene;
    scene.video_id = vids[i];
    scene.event = names[i];
    scene.player = players[i];
    scene.range.begin = begins[i];
    scene.range.end = ends[i];
    out.push_back(std::move(scene));
  }
  return out;
}

Result<std::vector<FrameInterval>> MetaIndex::FindShots(
    const std::string& category, int64_t video_id) const {
  COBRA_ASSIGN_OR_RETURN(
      std::vector<int64_t> rows,
      storage::SelectAll(
          shots_, {Predicate{"category", CompareOp::kEq, category},
                   Predicate{"video_id", CompareOp::kEq, video_id}}));
  const auto& begins = shots_.IntColumn(1);
  const auto& ends = shots_.IntColumn(2);
  std::vector<FrameInterval> out;
  out.reserve(rows.size());
  for (int64_t r : rows) {
    out.push_back(FrameInterval{begins[static_cast<size_t>(r)],
                                ends[static_cast<size_t>(r)]});
  }
  return out;
}

}  // namespace cobra::core
