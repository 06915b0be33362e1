#include "inputs.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

#include "harness.h"
#include "media/block_codec.h"
#include "text/corpus.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace cobra::perfbench {

namespace {

const char* const kEvents[] = {"serve", "rally", "net_play", "baseline_play"};
const char* const kCountries[] = {"australia", "usa",     "france", "spain",
                                  "russia",    "belgium", "serbia", "japan"};
const char* const kPhrases[] = {"champion title", "approaching the net",
                                "australian open", "deep volley",
                                "handed serve", "melbourne"};

vision::ShotSignature RandomSignature(Rng* rng) {
  vision::ShotSignature sig;
  for (uint64_t& word : sig.hash) word = rng->NextU64();
  for (uint8_t& byte : sig.sketch) {
    byte = static_cast<uint8_t>(rng->NextBounded(256));
  }
  return sig;
}

vision::ShotSignature Perturb(const vision::ShotSignature& sig, int flips,
                              Rng* rng) {
  vision::ShotSignature out = sig;
  for (int f = 0; f < flips; ++f) {
    const uint32_t bit = static_cast<uint32_t>(rng->NextBounded(256));
    out.hash[bit / 64] ^= uint64_t{1} << (bit % 64);
  }
  for (uint8_t& byte : out.sketch) {
    if (rng->NextBounded(4) == 0) {
      byte = static_cast<uint8_t>(
          std::min<uint64_t>(255, byte + rng->NextBounded(5)));
    }
  }
  return out;
}

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t label) {
  return MixHash(MixHash(seed) ^ (label * 0x9e3779b97f4a7c15ull));
}

webspace::SynthesizedSite MakeSite(uint64_t seed, int players, int years,
                                   int videos_per_year,
                                   int interviews_per_player) {
  webspace::SiteConfig config;
  config.interviews_per_player = interviews_per_player;
  config.num_players = players;
  config.num_past_years = years;
  config.videos_per_year = videos_per_year;
  config.seed = SubSeed(seed, 1);
  config.ensure_answer = true;
  return webspace::SiteSynthesizer::Generate(config).TakeValue();
}

namespace {

/// The archive's broadcast shape: 128x96, three points with cutaways
/// (~530 frames, ~20 MB decoded).
media::TennisSynthConfig BroadcastConfig(uint64_t seed) {
  media::TennisSynthConfig config;
  config.width = 128;
  config.height = 96;
  config.num_points = 3;
  config.min_court_frames = 120;
  config.max_court_frames = 140;
  config.min_cutaway_frames = 28;
  config.max_cutaway_frames = 36;
  config.net_approach_prob = 0.7;
  config.seed = seed;
  return config;
}

}  // namespace

Result<std::vector<CodedBroadcast>> MakeCodedBroadcasts(
    const webspace::SynthesizedSite& site, const std::vector<int64_t>& oids,
    uint64_t seed, int threads) {
  std::vector<Result<CodedBroadcast>> slots(oids.size(),
                                            Status::Internal("not generated"));
  auto make = [&](size_t i) -> Result<CodedBroadcast> {
    const int64_t oid = oids[i];
    auto it = site.video_seeds.find(oid);
    if (it == site.video_seeds.end()) {
      return Status::NotFound("no site video " + std::to_string(oid));
    }
    COBRA_ASSIGN_OR_RETURN(
        media::Broadcast broadcast,
        media::TennisBroadcastSynthesizer(
            BroadcastConfig(SubSeed(seed, it->second)))
            .Synthesize());
    media::CodecConfig codec;
    // A +-3 pel search halves encode time against the default +-7 at the
    // same coded size; the FDE only ever decodes.
    codec.motion_search_range = 3;
    COBRA_ASSIGN_OR_RETURN(
        media::EncodedVideo encoded,
        media::BlockVideoEncoder::Encode(*broadcast.video, codec));
    CodedBroadcast out;
    out.video_oid = oid;
    out.bytes =
        std::make_shared<const std::vector<uint8_t>>(encoded.Serialize());
    out.frames = encoded.num_frames();
    out.width = encoded.width();
    out.height = encoded.height();
    out.truth_shots = static_cast<int64_t>(broadcast.truth.shots.size());
    out.truth_events = static_cast<int64_t>(broadcast.truth.events.size());
    return out;
  };
  {
    util::ThreadPool pool(threads);
    pool.ParallelFor(0, static_cast<int64_t>(oids.size()), 1,
                     [&](int64_t i) {
                       const auto slot = static_cast<size_t>(i);
                       slots[slot] = make(slot);
                     });
  }
  std::vector<CodedBroadcast> out;
  out.reserve(slots.size());
  for (auto& slot : slots) {
    if (!slot.ok()) return slot.status();
    out.push_back(slot.TakeValue());
  }
  return out;
}

std::vector<CodedBroadcast> RepeatBroadcasts(
    const std::vector<CodedBroadcast>& distinct,
    const std::vector<int64_t>& oids) {
  std::vector<CodedBroadcast> out;
  for (size_t i = 0; i < oids.size() && !distinct.empty(); ++i) {
    out.push_back(distinct[i % distinct.size()]);
    out.back().video_oid = oids[i];
  }
  return out;
}

void AddSyntheticVideos(const std::vector<int64_t>& oids, uint64_t seed,
                        engine::serving::CorpusParts* parts) {
  constexpr int kShotsPerVideo = 40;
  constexpr int kShotFrames = 600;
  constexpr int kEventsPerTennisShot = 6;
  constexpr double kFounderShare = 0.01;
  constexpr double kMemberShare = 0.15;
  Rng rng(SubSeed(seed, 2));
  const char* const categories[] = {"tennis", "tennis", "close-up", "tennis",
                                    "audience"};
  std::vector<vision::ShotSignature> founders;
  for (int64_t oid : oids) {
    const int64_t frames = int64_t{kShotsPerVideo} * kShotFrames;
    core::VideoDescription desc(oid, "synthetic match", 25.0, frames);
    std::vector<vision::SignatureRecord> records;
    std::vector<vision::ShotSignature> new_founders;
    for (int s = 0; s < kShotsPerVideo; ++s) {
      const int64_t begin = int64_t{s} * kShotFrames;
      const FrameInterval shot{begin, begin + kShotFrames - 1};
      const char* category = categories[rng.NextBounded(5)];
      desc.Add(core::CobraLayer::kFeature,
               grammar::Annotation("segment", shot)
                   .Set("category", std::string(category))
                   .Set("dominant_ratio", rng.NextDouble())
                   .Set("skin_ratio", rng.NextDouble(0.0, 0.3))
                   .Set("entropy", rng.NextDouble(2.0, 7.0)));
      if (std::string(category) == "tennis") {
        for (int e = 0; e < kEventsPerTennisShot; ++e) {
          const int64_t len = rng.NextInt(10, kShotFrames / 3);
          const int64_t start = begin + rng.NextInt(0, kShotFrames - len - 1);
          desc.Add(core::CobraLayer::kEvent,
                   grammar::Annotation(kEvents[rng.NextBounded(4)],
                                       {start, start + len})
                       .Set("player", rng.NextInt(-1, 1)));
        }
      }
      vision::SignatureRecord rec;
      rec.video_id = oid;
      rec.begin = shot.begin;
      rec.end = shot.end;
      const double roll = rng.NextDouble();
      if (!founders.empty() && roll < kMemberShare) {
        rec.sig = Perturb(founders[rng.NextBounded(founders.size())],
                          1 + static_cast<int>(rng.NextBounded(12)), &rng);
      } else {
        rec.sig = RandomSignature(&rng);
        if (roll < kMemberShare + kFounderShare) {
          new_founders.push_back(rec.sig);
        }
      }
      records.push_back(rec);
    }
    // Members always land in a later video than their founder.
    founders.insert(founders.end(), new_founders.begin(), new_founders.end());
    parts->videos.push_back(std::move(desc));
    parts->signatures.emplace_back(oid, std::move(records));
  }
}

std::vector<std::pair<int64_t, std::string>> Interviews(
    const webspace::SynthesizedSite& site) {
  return {site.interview_texts.begin(), site.interview_texts.end()};
}

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kConcept: return "concept";
    case QueryClass::kText: return "text";
    case QueryClass::kEvent: return "event";
    case QueryClass::kSimilar: return "similar";
  }
  return "?";
}

std::vector<std::pair<int64_t, int64_t>> SignatureProbes(
    const engine::serving::CorpusParts& parts) {
  std::vector<std::pair<int64_t, int64_t>> probes;
  for (const auto& [oid, records] : parts.signatures) {
    for (const vision::SignatureRecord& rec : records) {
      probes.emplace_back(oid, (rec.begin + rec.end) / 2);
    }
  }
  return probes;
}

namespace {

/// A ranking window [lo, hi] of width >= 1/4 of the field, so the
/// candidate-player set size stays within a 4x band for every seed.
std::string RankingWindow(int players, Rng* rng) {
  const int quarter = players / 4;
  const int width = std::max(
      2, quarter + static_cast<int>(
                       rng->NextBounded(static_cast<uint64_t>(quarter + 1))));
  const int lo = 1 + static_cast<int>(rng->NextBounded(
                         static_cast<uint64_t>(std::max(1, players - width))));
  return StringFormat("player.ranking >= %d AND player.ranking <= %d", lo,
                      lo + width - 1);
}

std::string Word(Rng* rng) {
  return text::VocabularyWord(1 + rng->NextBounded(700));
}

std::string MakeQuery(QueryClass cls, const QueryDomain& d, Rng* rng) {
  const std::string event = kEvents[rng->NextBounded(4)];
  const int year = d.first_year + static_cast<int>(rng->NextBounded(
                                      static_cast<uint64_t>(d.years)));
  switch (cls) {
    case QueryClass::kEvent:
      switch (rng->NextBounded(4)) {
        case 0:  // the paper's section-2 shape
          return StringFormat(
              "player.hand = %s AND player.gender = %s AND won = any AND "
              "event = %s AND %s",
              rng->NextBounded(2) ? "left" : "right",
              rng->NextBounded(2) ? "female" : "male", event.c_str(),
              RankingWindow(d.players, rng).c_str());
        case 1:
          return StringFormat("%s AND event = %s",
                              RankingWindow(d.players, rng).c_str(),
                              event.c_str());
        case 2:
          return StringFormat("won.year = %d AND event = %s AND %s", year,
                              event.c_str(),
                              RankingWindow(d.players, rng).c_str());
        default:
          return StringFormat("text ~ \"%s %s\" AND event = %s",
                              Word(rng).c_str(), Word(rng).c_str(),
                              event.c_str());
      }
    case QueryClass::kText:
      if (rng->NextBounded(2) == 0) {
        return StringFormat("text ~ \"%s %s %s\"",
                            kPhrases[rng->NextBounded(6)], Word(rng).c_str(),
                            Word(rng).c_str());
      }
      return StringFormat("won = any AND text ~ \"%s %s\"", Word(rng).c_str(),
                          Word(rng).c_str());
    case QueryClass::kConcept:
      switch (rng->NextBounded(3)) {
        case 0:
          return StringFormat("player.hand = %s AND %s",
                              rng->NextBounded(2) ? "left" : "right",
                              RankingWindow(d.players, rng).c_str());
        case 1:
          return StringFormat(
              "player.country = %s AND player.gender = %s AND %s",
              kCountries[rng->NextBounded(8)],
                              rng->NextBounded(2) ? "female" : "male",
                              RankingWindow(d.players, rng).c_str());
        default:
          return StringFormat("won.year = %d AND player.gender = %s AND %s",
                              year, rng->NextBounded(2) ? "female" : "male",
                              RankingWindow(d.players, rng).c_str());
      }
    case QueryClass::kSimilar: {
      const auto& [video, frame] = d.probes[rng->NextBounded(d.probes.size())];
      const int k = 4 + static_cast<int>(rng->NextBounded(13));
      if (rng->NextBounded(2) == 0) {
        return StringFormat("similar_to = %lld:%lld AND similar_to.k = %d",
                            static_cast<long long>(video),
                            static_cast<long long>(frame), k);
      }
      return StringFormat(
          "event = %s AND similar_to = %lld:%lld AND similar_to.k = %d",
          event.c_str(), static_cast<long long>(video),
          static_cast<long long>(frame), k);
    }
  }
  return "";
}

}  // namespace

std::vector<StreamQuery> MakeQueryStream(const QueryDomain& domain,
                                         uint64_t seed, size_t count) {
  // Non-pool classes cycle so that the shares are exact for any seed.
  static constexpr QueryClass kCycle[] = {
      QueryClass::kEvent, QueryClass::kEvent, QueryClass::kEvent,
      QueryClass::kEvent, QueryClass::kEvent, QueryClass::kEvent,
      QueryClass::kEvent, QueryClass::kSimilar};
  constexpr size_t kCycleLen = sizeof(kCycle) / sizeof(kCycle[0]);
  constexpr size_t kPoolPerClass = 8;
  Rng rng(SubSeed(seed, 3));
  // Hashes, not strings: the stream is long and this set is transient.
  std::unordered_set<uint64_t> seen;
  seen.reserve(count);
  auto fresh = [&seen](const std::string& text) {
    Digest digest;
    digest.AddString(text);
    return seen.insert(digest.value()).second;
  };
  // pool[0, 8) are concept-only, pool[8, 16) text-only.
  std::vector<StreamQuery> pool;
  for (QueryClass cls : {QueryClass::kConcept, QueryClass::kText}) {
    for (size_t n = 0; n < kPoolPerClass;) {
      std::string text = MakeQuery(cls, domain, &rng);
      if (!fresh(text)) continue;
      pool.push_back({std::move(text), cls, true});
      ++n;
    }
  }
  std::vector<StreamQuery> stream;
  stream.reserve(count);
  size_t pooled = 0, distinct = 0;
  int redraws = 0;
  while (stream.size() < count) {
    if (stream.size() % 5 == 0) {
      const size_t half = (pooled++ % 2) * kPoolPerClass;
      stream.push_back(pool[half + rng.NextBounded(kPoolPerClass)]);
      continue;
    }
    const QueryClass cls = kCycle[distinct % kCycleLen];
    std::string text = MakeQuery(cls, domain, &rng);
    // Keep the rest distinct; a domain too small for that would loop
    // forever, so after many redraws the repeat is taken.
    if (!fresh(text) && ++redraws < 1000) continue;
    redraws = 0;
    ++distinct;
    stream.push_back({std::move(text), cls, false});
  }
  return stream;
}

void DigestSite(const webspace::SynthesizedSite& site, Digest* digest) {
  for (int64_t oid : site.player_oids) {
    for (const char* attr : {"name", "gender", "hand", "country", "ranking"}) {
      if (auto v = site.store.GetAttribute("Player", oid, attr); v.ok()) {
        digest->AddString(grammar::MetaValueToString(*v));
      }
    }
  }
  for (int64_t oid : site.champions) digest->AddU64(static_cast<uint64_t>(oid));
  for (const auto& [oid, seed] : site.video_seeds) {
    digest->AddU64(static_cast<uint64_t>(oid));
    digest->AddU64(seed);
  }
}

void DigestParts(const engine::serving::CorpusParts& parts, Digest* digest) {
  for (const auto& [oid, text] : parts.interviews) {
    digest->AddU64(static_cast<uint64_t>(oid));
    digest->AddString(text);
  }
  for (const core::VideoDescription& desc : parts.videos) {
    digest->AddU64(static_cast<uint64_t>(desc.video_id()));
    for (core::CobraLayer layer :
         {core::CobraLayer::kFeature, core::CobraLayer::kEvent}) {
      for (const grammar::Annotation& a : desc.Layer(layer)) {
        digest->AddString(a.symbol);
        digest->AddU64(static_cast<uint64_t>(a.range.begin));
        digest->AddU64(static_cast<uint64_t>(a.range.end));
        for (const auto& [key, value] : a.attrs) {
          digest->AddString(key);
          digest->AddString(grammar::MetaValueToString(value));
        }
      }
    }
  }
  for (const auto& [oid, records] : parts.signatures) {
    digest->AddU64(static_cast<uint64_t>(oid));
    digest->Add(records.data(), records.size() * sizeof(records[0]));
  }
}

void DigestBroadcasts(const std::vector<CodedBroadcast>& broadcasts,
                      Digest* digest) {
  std::map<const void*, uint64_t> seen;  // re-aired bytes: hash once
  for (const CodedBroadcast& b : broadcasts) {
    digest->AddU64(static_cast<uint64_t>(b.video_oid));
    auto [it, fresh] = seen.emplace(b.bytes.get(), seen.size());
    digest->AddU64(it->second);
    if (fresh) digest->Add(b.bytes->data(), b.bytes->size());
  }
}

void DigestStream(const std::vector<StreamQuery>& stream, Digest* digest) {
  for (const StreamQuery& q : stream) digest->AddString(q.text);
}

}  // namespace cobra::perfbench
