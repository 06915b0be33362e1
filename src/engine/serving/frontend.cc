#include "engine/serving/serving.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <utility>

namespace cobra::engine::serving {
namespace {

/// Entries of the frontend's text-seed LRU cache.
constexpr size_t kTextSeedCacheCapacity = 128;

/// Merges a shard's SceneHitLess-sorted result into the running global
/// top-N (top_n == 0 = unbounded). Sorted-input merge keeps the whole
/// gather linear in the hits seen.
void MergeInto(std::vector<SceneHit>* best, const std::vector<SceneHit>& hits,
               size_t top_n) {
  if (hits.empty()) return;
  std::vector<SceneHit> merged;
  merged.reserve(best->size() + hits.size());
  std::merge(best->begin(), best->end(), hits.begin(), hits.end(),
             std::back_inserter(merged), SceneHitLess);
  if (top_n > 0 && merged.size() > top_n) merged.resize(top_n);
  *best = std::move(merged);
}

}  // namespace

/// Shared fate of one scattered query; jobs hold it by shared_ptr so a
/// degraded (deadline-expired) response can return while stragglers still
/// drain against this state.
struct ServingFrontend::ScatterState {
  std::mutex mu;
  std::condition_variable cv;
  CombinedQuery query;
  size_t top_n = 0;
  std::shared_ptr<const std::map<int64_t, double>> seed;
  std::shared_ptr<const SimilarSeed> similar_seed;
  size_t pending = 0;
  bool cancelled = false;
  bool has_error = false;
  Status error;
  std::vector<SceneHit> best;
  size_t searched = 0;
  size_t pruned_by_bound = 0;
  struct Deferred {
    size_t shard = 0;
    SceneHit bound;
    std::function<void()> job;
  };
  /// Bounded targets not yet dispatched, best bound first. Each completion
  /// either prunes them against the merged Nth or releases the next one —
  /// the early-terminating merge: a shard whose bound ranks after the Nth
  /// is never even scheduled, so its work is saved, not raced.
  std::deque<Deferred> deferred;
};

Result<std::unique_ptr<ServingFrontend>> ServingFrontend::Create(
    std::vector<const DigitalLibrary*> shards, ServingConfig config) {
  if (shards.empty()) {
    return Status::InvalidArgument("serving frontend needs >= 1 shard");
  }
  for (const DigitalLibrary* shard : shards) {
    if (shard == nullptr) {
      return Status::InvalidArgument("null shard library");
    }
  }
  return std::unique_ptr<ServingFrontend>(
      new ServingFrontend(std::move(shards), std::move(config)));
}

ServingFrontend::ServingFrontend(std::vector<const DigitalLibrary*> shards,
                                 ServingConfig config)
    : config_(config), seed_cache_(kTextSeedCacheCapacity) {
  if (config_.queue_depth < 1) config_.queue_depth = 1;
  slots_.reserve(shards.size());
  workers_.reserve(shards.size());
  for (const DigitalLibrary* shard : shards) {
    auto slot = std::make_unique<ShardSlot>();
    slot->snap = BuildSnapshot(shard, nullptr, std::make_shared<int>(0));
    slots_.push_back(std::move(slot));
    workers_.push_back(std::make_unique<Worker>());
  }
  for (auto& worker : workers_) {
    worker->thread =
        std::thread(&ServingFrontend::WorkerLoop, this, worker.get());
  }
}

ServingFrontend::~ServingFrontend() {
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

std::shared_ptr<const ServingFrontend::Snapshot> ServingFrontend::BuildSnapshot(
    const DigitalLibrary* library, std::shared_ptr<QueryEngine> engine,
    std::shared_ptr<const void> lease) {
  auto snap = std::make_shared<Snapshot>();
  snap->library = library;
  snap->lease = std::move(lease);
  snap->engine =
      engine ? std::move(engine) : std::make_shared<QueryEngine>(library);
  snap->built_epoch = library->index_epoch();
  const std::vector<int64_t>& videos = library->indexed_videos();
  snap->has_videos = !videos.empty();
  if (snap->has_videos) {
    snap->min_video = *std::min_element(videos.begin(), videos.end());
  }
  snap->video_set.insert(videos.begin(), videos.end());
  Result<std::vector<int64_t>> present =
      library->store().TraverseReverse("plays_in", videos);
  if (present.ok()) {
    snap->presence_valid = true;
    snap->players_present.insert(present.value().begin(),
                                 present.value().end());
  }
  return snap;
}

Result<std::shared_ptr<const SimilarSeed>> ServingFrontend::SimilarSeedFor(
    const CombinedQuery& query,
    const std::vector<std::shared_ptr<const Snapshot>>& snaps,
    size_t* probes_skipped) {
  // The signature modality is partitioned: the probe shot is indexed in
  // exactly one shard. Resolve it there.
  const similarity::SignatureIndex* home = nullptr;
  vision::ShotSignature probe{};
  Status unresolved;
  for (const auto& snap : snaps) {
    Result<vision::ShotSignature> resolved =
        ResolveProbeSignature(snap->library->signatures(), query);
    if (resolved.ok()) {
      probe = resolved.value();
      home = &snap->library->signatures();
      break;
    }
    unresolved = resolved.status();
  }
  if (home == nullptr) return unresolved;
  const size_t k = EffectiveSimilarK(*home, query);
  // The probe's own record (home shard only) must not displace a real
  // neighbor before BuildSimilarNeighbors drops it.
  const size_t candidates = SimilarCandidates(k);

  // Candidate merge in Hamming-lower-bound order: per-shard exact
  // top-(k+1) lists union to the global top-(k+1) (each shard's list is
  // exact over its records), and a shard whose every record provably ranks
  // after the (k+1)-th kept candidate is never searched at all.
  std::vector<std::pair<uint32_t, const similarity::SignatureIndex*>> order;
  order.reserve(snaps.size());
  for (const auto& snap : snaps) {
    const similarity::SignatureIndex& index = snap->library->signatures();
    order.emplace_back(index.HammingLowerBound(probe), &index);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<similarity::Neighbor> merged;
  for (const auto& [hlb, index] : order) {
    if (merged.size() > k &&
        similarity::DistanceKey(merged[k].hamming, merged[k].l2sq) <
            similarity::DistanceKey(hlb, 0)) {
      // Every record in the shard has Hamming >= hlb, so its key exceeds
      // the (k+1)-th kept candidate's strictly — it can neither displace
      // nor tie-break into the merged top-(k+1).
      ++*probes_skipped;
      continue;
    }
    std::vector<similarity::Neighbor> cand =
        index->SearchSimilar(probe, candidates);
    merged.insert(merged.end(), cand.begin(), cand.end());
    std::sort(merged.begin(), merged.end(), similarity::NeighborBefore);
    if (merged.size() > candidates) merged.resize(candidates);
  }
  auto seed = std::make_shared<SimilarSeed>();
  seed->signature = probe;
  seed->neighbors = BuildSimilarNeighbors(merged, query, k);
  return std::shared_ptr<const SimilarSeed>(std::move(seed));
}

std::shared_ptr<const ServingFrontend::Snapshot> ServingFrontend::Acquire(
    size_t shard) {
  ShardSlot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.snap->built_epoch != slot.snap->library->index_epoch()) {
    // The shard mutated since the snapshot was built: the pruning stats
    // (presence set, video range) are stale and must be rebuilt before any
    // prune decision trusts them. The engine survives — its cache keys
    // carry the epoch, so entries of the old epoch are never looked up
    // again. Same data generation (same library, same lease) — only the
    // derived pruning stats are rebuilt.
    slot.snap =
        BuildSnapshot(slot.snap->library, slot.snap->engine, slot.snap->lease);
  }
  return slot.snap;
}

Result<std::shared_ptr<const std::map<int64_t, double>>>
ServingFrontend::TextSeed(const CombinedQuery& query, int64_t epoch,
                          bool* cached) {
  *cached = false;
  std::string key = std::to_string(query.text.size());
  key += ':';
  key += query.text;
  key += '|';
  key += std::to_string(query.text_top_k);
  key += '|';
  key += std::to_string(epoch);
  if (auto hit = seed_cache_.Get(key)) {
    seed_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    *cached = true;
    return *std::move(hit);
  }
  seed_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  // Shard 0's interview index stands for every shard's — the modality is
  // replicated (partition.h).
  std::shared_ptr<const Snapshot> snap = Acquire(0);
  COBRA_ASSIGN_OR_RETURN(auto stage,
                         snap->library->TextStage(query.text, query.text_top_k));
  auto seed =
      std::make_shared<const std::map<int64_t, double>>(std::move(stage));
  seed_cache_.Put(key, seed);
  return seed;
}

void ServingFrontend::WorkerLoop(Worker* worker) {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(worker->mu);
      worker->cv.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               (!paused_.load(std::memory_order_acquire) &&
                !worker->queue.empty());
      });
      if (worker->queue.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        continue;  // paused wake-up with nothing runnable
      }
      // On stop the queue still drains — a queued job always runs, so no
      // Search caller is left waiting on a dropped job.
      job = std::move(worker->queue.front());
      worker->queue.pop_front();
    }
    job();
  }
}

bool ServingFrontend::Dispatch(size_t shard, std::function<void()> job) {
  Worker& worker = *workers_[shard];
  std::lock_guard<std::mutex> lock(worker.mu);
  if (worker.queue.size() >= config_.queue_depth) return false;
  worker.queue.push_back(std::move(job));
  worker.cv.notify_one();
  return true;
}

void ServingFrontend::DrainDeferredLocked(ScatterState* st) {
  while (!st->deferred.empty()) {
    if (st->cancelled || st->has_error) {
      st->pending -= st->deferred.size();
      st->deferred.clear();
      return;
    }
    if (st->top_n > 0 && st->best.size() >= st->top_n &&
        SceneHitLess(st->best.back(), st->deferred.front().bound)) {
      // Early termination: this bound — and, since the queue is bound-
      // ordered, every later one — can still be re-checked cheaply, so
      // only drop the head and loop.
      ++st->pruned_by_bound;
      --st->pending;
      st->deferred.pop_front();
      continue;
    }
    ScatterState::Deferred next = std::move(st->deferred.front());
    st->deferred.pop_front();
    // Worker mutexes are leaves; dispatching under st->mu is cycle-free.
    if (!Dispatch(next.shard, std::move(next.job))) {
      st->cancelled = true;
      st->has_error = true;
      st->error = Status::Unavailable("serving queues full, query shed");
      st->pending -= 1 + st->deferred.size();
      st->deferred.clear();
      shed_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
}

Result<std::vector<SceneHit>> ServingFrontend::Search(
    const CombinedQuery& query, size_t top_n, QueryStats* qstats,
    double deadline_ms) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  QueryStats local;
  QueryStats& qs = qstats != nullptr ? *qstats : local;
  qs = QueryStats{};
  qs.shards_total = slots_.size();

  const bool has_deadline = deadline_ms > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              has_deadline ? deadline_ms : 0.0));

  const bool has_event = !query.event.empty();
  const bool has_text = !query.text.empty();
  const bool has_similar = query.similar_video >= 0;
  constexpr int64_t kLow = std::numeric_limits<int64_t>::min();

  auto st = std::make_shared<ScatterState>();
  st->query = query;
  st->top_n = top_n;

  // Every shard holds the same store and interview index (partition.h), so
  // shard 0 validates the query once for all of them, before the scatter:
  // an invalid query fails here with exactly DigitalLibrary::Search's
  // status, whichever shards the routing or pruning below would pick.
  const std::shared_ptr<const Snapshot> first = Acquire(0);
  COBRA_RETURN_NOT_OK(first->library->ValidateQuery(query));
  if (has_text) {
    bool cached = false;
    COBRA_ASSIGN_OR_RETURN(st->seed,
                           TextSeed(query, first->built_epoch, &cached));
    qs.text_seeded = true;
    qs.text_seed_cached = cached;
  }
  if (has_similar) {
    std::vector<std::shared_ptr<const Snapshot>> snaps;
    snaps.reserve(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) snaps.push_back(Acquire(i));
    size_t skipped = 0;
    COBRA_ASSIGN_OR_RETURN(st->similar_seed,
                           SimilarSeedFor(query, snaps, &skipped));
    qs.similar_seeded = true;
    qs.similar_probes_skipped = skipped;
    similar_seeded_.fetch_add(1, std::memory_order_relaxed);
    similar_probes_skipped_.fetch_add(static_cast<int64_t>(skipped),
                                      std::memory_order_relaxed);
  }

  struct Target {
    size_t shard = 0;
    std::shared_ptr<const Snapshot> snap;
    SceneHit bound;
    bool has_bound = false;
  };
  std::vector<Target> targets;

  if (!has_event && !has_similar) {
    // No content condition: the answer only involves the replicated
    // modalities, so any single shard produces the full result. Hashing
    // the normalized key gives cache affinity across repeats.
    const size_t shard =
        std::hash<std::string>{}(QueryEngine::NormalizedKey(query)) %
        slots_.size();
    targets.push_back({shard, Acquire(shard), SceneHit{}, false});
    qs.single_shard_routed = true;
    single_shard_routed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    for (size_t i = 0; i < slots_.size(); ++i) {
      std::shared_ptr<const Snapshot> snap = Acquire(i);
      if (!snap->has_videos) {
        ++qs.shards_pruned_upfront;  // every hit would need a scene or shot
        continue;
      }
      Target t;
      t.shard = i;
      t.bound.video_oid = snap->min_video;
      t.bound.range = {kLow, kLow};
      t.bound.player_oid = kLow;
      t.has_bound = true;
      if (has_text) {
        if (snap->presence_valid) {
          // Upper bound on any shard hit's text score: best seed score
          // among players that appear in the shard's videos at all.
          double best_score = -1.0;
          if (st->seed->size() <= snap->players_present.size()) {
            for (const auto& [player, score] : *st->seed) {
              if (snap->players_present.count(player) != 0) {
                best_score = std::max(best_score, score);
              }
            }
          } else {
            for (int64_t player : snap->players_present) {
              auto it = st->seed->find(player);
              if (it != st->seed->end()) {
                best_score = std::max(best_score, it->second);
              }
            }
          }
          if (best_score < 0.0) {
            ++qs.shards_pruned_upfront;  // nobody both matches and appears
            continue;
          }
          t.bound.text_score = best_score;
        } else {
          t.has_bound = false;  // text bound unknowable; never prune
        }
      }
      if (has_similar) {
        // A shard contributes hits only through neighbor shots of its own
        // videos, each carrying similarity >= the shard's closest neighbor
        // distance — the per-shard lower bound on the similarity rank.
        double best_distance = -1.0;
        for (const auto& [video, shots] : st->similar_seed->neighbors) {
          if (snap->video_set.count(video) == 0) continue;
          for (const SimilarShot& shot : shots) {
            if (best_distance < 0.0 || shot.distance < best_distance) {
              best_distance = shot.distance;
            }
          }
        }
        if (best_distance < 0.0) {
          ++qs.shards_pruned_upfront;  // no neighbor shot in this shard
          continue;
        }
        t.bound.similarity = best_distance;
      }
      t.snap = std::move(snap);
      targets.push_back(std::move(t));
    }
    // Every shard may be pruned: the query was validated above, so its
    // answer is then the empty merge, with no shard searched.
    // Best bound first: tightens the merged Nth as early as possible, so
    // later (worse-bounded) shards prune at dequeue. Unbounded targets
    // lead — they run regardless.
    std::stable_sort(targets.begin(), targets.end(),
                     [](const Target& a, const Target& b) {
                       if (a.has_bound != b.has_bound) return !a.has_bound;
                       if (!a.has_bound) return false;
                       return SceneHitLess(a.bound, b.bound);
                     });
  }

  st->pending = targets.size();
  // Immediate wave: every unbounded target (they run regardless), or just
  // the best-bounded one when all targets have bounds. The rest cascade
  // through DrainDeferredLocked — dispatched one at a time, in bound
  // order, only while their bound still beats the merged Nth.
  size_t immediate = 0;
  while (immediate < targets.size() && !targets[immediate].has_bound) {
    ++immediate;
  }
  if (immediate == 0) immediate = 1;

  std::vector<std::pair<size_t, std::function<void()>>> wave;
  for (size_t k = 0; k < targets.size(); ++k) {
    Target& t = targets[k];
    std::shared_ptr<const Snapshot> snap = std::move(t.snap);
    const bool check_bound = t.has_bound && top_n > 0;
    SceneHit bound = t.bound;
    auto job = [this, st, snap, bound, check_bound] {
      bool skip = false;
      {
        std::lock_guard<std::mutex> lock(st->mu);
        if (st->cancelled || st->has_error) {
          skip = true;
        } else if (check_bound && st->best.size() >= st->top_n &&
                   SceneHitLess(st->best.back(), bound)) {
          // The shard's best possible hit ranks strictly after the merged
          // Nth: nothing it holds can enter the top-N.
          skip = true;
          ++st->pruned_by_bound;
        }
      }
      if (!skip) {
        // The shard answers only its own top-N: the global top-N is the
        // top-N of the union of every shard's top-N.
        Result<std::vector<SceneHit>> result = snap->engine->Search(
            {st->query, st->top_n, st->seed.get(), st->similar_seed.get()});
        std::lock_guard<std::mutex> lock(st->mu);
        ++st->searched;
        if (!result.ok()) {
          if (!st->has_error) {
            st->has_error = true;
            st->error = result.status();
          }
        } else if (!st->cancelled) {
          MergeInto(&st->best, result.value(), st->top_n);
        }
      }
      std::lock_guard<std::mutex> lock(st->mu);
      --st->pending;
      DrainDeferredLocked(st.get());
      st->cv.notify_all();
    };
    if (k < immediate) {
      wave.emplace_back(t.shard, std::move(job));
    } else {
      st->deferred.push_back({t.shard, t.bound, std::move(job)});
    }
  }
  for (auto& [shard, job] : wave) {
    if (!Dispatch(shard, std::move(job))) {
      {
        std::lock_guard<std::mutex> lock(st->mu);
        st->cancelled = true;  // already-queued jobs fall through fast
        st->deferred.clear();
      }
      shed_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("serving queues full, query shed");
    }
  }

  std::unique_lock<std::mutex> lock(st->mu);
  if (has_deadline) {
    if (!st->cv.wait_until(lock, deadline,
                           [&] { return st->pending == 0; })) {
      st->cancelled = true;
      qs.shards_timed_out = st->pending;
      qs.degraded = true;
      degraded_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    st->cv.wait(lock, [&] { return st->pending == 0; });
  }
  qs.shards_searched = st->searched;
  qs.shards_pruned_by_bound = st->pruned_by_bound;
  shards_searched_.fetch_add(static_cast<int64_t>(st->searched),
                             std::memory_order_relaxed);
  shards_pruned_upfront_.fetch_add(
      static_cast<int64_t>(qs.shards_pruned_upfront),
      std::memory_order_relaxed);
  shards_pruned_by_bound_.fetch_add(
      static_cast<int64_t>(st->pruned_by_bound), std::memory_order_relaxed);
  if (st->has_error) return st->error;
  return std::move(st->best);
}

Status ServingFrontend::ReloadShard(
    size_t shard, const DigitalLibrary* library,
    std::shared_ptr<const void>* retired_lease) {
  if (shard >= slots_.size()) {
    return Status::OutOfRange("no such shard");
  }
  if (library == nullptr) {
    return Status::InvalidArgument("null shard library");
  }
  // Fresh engine + cache: a reload is a new data generation, not an epoch
  // bump of the old one.
  std::shared_ptr<const Snapshot> snap =
      BuildSnapshot(library, nullptr, std::make_shared<int>(0));
  std::lock_guard<std::mutex> lock(slots_[shard]->mu);
  if (retired_lease != nullptr) {
    // Every snapshot of the outgoing generation shares this lease, so the
    // returned copy is unique exactly when no in-flight query still reads
    // the old library.
    *retired_lease = slots_[shard]->snap->lease;
  }
  slots_[shard]->snap = std::move(snap);
  return Status::OK();
}

ServingStats ServingFrontend::stats() const {
  ServingStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.shards_searched = shards_searched_.load(std::memory_order_relaxed);
  out.shards_pruned_upfront =
      shards_pruned_upfront_.load(std::memory_order_relaxed);
  out.shards_pruned_by_bound =
      shards_pruned_by_bound_.load(std::memory_order_relaxed);
  out.single_shard_routed =
      single_shard_routed_.load(std::memory_order_relaxed);
  out.text_seed_cache_hits = seed_cache_hits_.load(std::memory_order_relaxed);
  out.text_seed_cache_misses =
      seed_cache_misses_.load(std::memory_order_relaxed);
  out.similar_seeded = similar_seeded_.load(std::memory_order_relaxed);
  out.similar_probes_skipped =
      similar_probes_skipped_.load(std::memory_order_relaxed);
  return out;
}

void ServingFrontend::PauseWorkersForTest() {
  paused_.store(true, std::memory_order_release);
}

void ServingFrontend::ResumeWorkers() {
  paused_.store(false, std::memory_order_release);
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->cv.notify_all();
  }
}

size_t ServingFrontend::QueuedJobsForTest() const {
  size_t total = 0;
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    total += worker->queue.size();
  }
  return total;
}

}  // namespace cobra::engine::serving
