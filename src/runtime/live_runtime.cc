#include "runtime/live_runtime.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace tpc::runtime {

// --- TimerWheel -------------------------------------------------------------

TimerId TimerWheel::Arm(sim::Time deadline_us, TimerCallback fn,
                        LiveNodeRuntime* owner) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.owner = owner;
  s.deadline = deadline_us;
  if (++s.gen == 0) s.gen = 1;  // id 0 means "unarmed" to runtime::Timer
  s.armed = true;
  // Hash by deadline tick; anything already due lands in the next tick's
  // bucket so Advance picks it up on the following pass.
  int64_t target_tick = deadline_us / tick_us_;
  if (target_tick <= last_tick_) target_tick = last_tick_ + 1;
  buckets_[static_cast<size_t>(target_tick) % kBuckets].push_back(
      Entry{slot, s.gen});
  return (static_cast<TimerId>(s.gen) << 32) | slot;
}

bool TimerWheel::Cancel(TimerId id) {
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.armed || s.gen != gen) return false;
  s.armed = false;
  s.fn = TimerCallback();
  s.owner = nullptr;
  free_.push_back(slot);
  // The bucket entry (if still queued) becomes stale and is skipped by the
  // gen check in Advance/Fire.
  return true;
}

void TimerWheel::Advance(sim::Time now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now_tick = now_us / tick_us_;
  if (now_tick <= last_tick_) return;
  // Scan every bucket the window passed; a full wrap covers them all.
  const int64_t span =
      std::min<int64_t>(now_tick - last_tick_, static_cast<int64_t>(kBuckets));
  for (int64_t i = 1; i <= span; ++i) {
    auto& bucket = buckets_[static_cast<size_t>(last_tick_ + i) % kBuckets];
    size_t keep = 0;
    for (const Entry e : bucket) {
      if (e.slot >= slots_.size()) continue;
      Slot& s = slots_[e.slot];
      if (!s.armed || s.gen != e.gen) continue;  // cancelled or re-used
      if (s.deadline > now_us) {
        bucket[keep++] = e;  // future wrap of this bucket
        continue;
      }
      // Due: post a fire task to the owner. The slot stays armed — Cancel
      // on the node's thread can still win until the task body claims it.
      LiveNodeRuntime* owner = s.owner;
      TimerWheel* wheel = this;
      const uint32_t slot = e.slot;
      const uint32_t gen = e.gen;
      owner->Post(Task([wheel, slot, gen] { wheel->Fire(slot, gen); }));
    }
    bucket.resize(keep);
  }
  last_tick_ = now_tick;
}

void TimerWheel::Fire(uint32_t slot, uint32_t gen) {
  TimerCallback fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_[slot];
    if (!s.armed || s.gen != gen) return;  // cancelled after posting
    s.armed = false;
    fn = std::move(s.fn);
    s.fn = TimerCallback();
    s.owner = nullptr;
    free_.push_back(slot);
  }
  fn();  // outside the wheel lock: the callback may arm/cancel timers
}

// --- LiveNodeRuntime --------------------------------------------------------

sim::Time LiveNodeRuntime::Now() const { return rt_->NowUs(); }

TimerId LiveNodeRuntime::ArmTimer(sim::Time delay, TimerCallback fn) {
  return rt_->wheel_.Arm(rt_->NowUs() + delay, std::move(fn), this);
}

bool LiveNodeRuntime::CancelTimer(TimerId id) { return rt_->wheel_.Cancel(id); }

uint64_t LiveNodeRuntime::NextTxnId() { return rt_->NextTxnId(); }

void LiveNodeRuntime::Post(Task task) {
  bool enqueue = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    mailbox_.push_back(std::move(task));
    if (!scheduled_) {
      scheduled_ = true;
      enqueue = true;
    }
  }
  if (enqueue) rt_->Enqueue(this);
}

// --- LiveRuntime ------------------------------------------------------------

LiveRuntime::LiveRuntime(Options options)
    : options_(options),
      epoch_(std::chrono::steady_clock::now()),
      wheel_(this, options.timer_tick_us) {
  TPC_CHECK(options_.worker_threads >= 1);
  TPC_CHECK(options_.timer_tick_us >= 1);
}

LiveRuntime::~LiveRuntime() { Stop(); }

LiveNodeRuntime* LiveRuntime::AddNode(const std::string& name) {
  TPC_CHECK(!started_);
  nodes_.emplace_back(new LiveNodeRuntime(this, name));
  return nodes_.back().get();
}

void LiveRuntime::Start() {
  TPC_CHECK(!started_);
  started_ = true;
  stopping_ = false;
  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
  ticker_ = std::thread([this] { TickLoop(); });
}

void LiveRuntime::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    stopping_ = true;
  }
  ready_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  if (ticker_.joinable()) ticker_.join();
  started_ = false;
}

sim::Time LiveRuntime::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void LiveRuntime::WaitIdle() {
  std::unique_lock<std::mutex> lock(ready_mu_);
  idle_cv_.wait(lock, [this] { return ready_.empty() && running_ == 0; });
}

namespace {

// Set while this thread runs a deferred item. The first node the item makes
// ready (a posted storage completion) gets no wake-up; it is recorded in
// `tls_held` instead, for this worker to run itself: before its next
// deferred item, or by returning to the ready queue.
thread_local bool tls_in_deferred = false;
thread_local LiveNodeRuntime* tls_held = nullptr;

}  // namespace

void LiveRuntime::Enqueue(LiveNodeRuntime* node) {
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ready_.push_back(node);
  }
  if (tls_in_deferred && tls_held == nullptr) {
    tls_held = node;
    return;
  }
  ready_cv_.notify_one();
}

bool LiveRuntime::RunBatch(LiveNodeRuntime* node, std::deque<Task>& batch) {
  // Exclusive run rights on `node` until we release its scheduled flag.
  {
    std::lock_guard<std::mutex> lock(node->mu_);
    batch.swap(node->mailbox_);
  }
  for (Task& t : batch) t();
  batch.clear();
  std::lock_guard<std::mutex> lock(node->mu_);
  if (!node->mailbox_.empty()) return true;
  node->scheduled_ = false;
  return false;
}

void LiveRuntime::RunDeferred(std::vector<DeferredWork>& deferred,
                              std::deque<Task>& batch) {
  // Items may append items, so walk by index.
  for (size_t i = 0; i < deferred.size(); ++i) {
    DeferredWork work = std::move(deferred[i]);
    if (tls_held != nullptr) {
      // About to block again: run the held node here (a completion's ack)
      // rather than wake a worker for it — unless one already took it.
      LiveNodeRuntime* node = std::exchange(tls_held, nullptr);
      bool claimed;
      {
        std::lock_guard<std::mutex> lock(ready_mu_);
        auto it = std::find(ready_.begin(), ready_.end(), node);
        claimed = it != ready_.end();
        if (claimed) ready_.erase(it);
      }
      if (claimed && RunBatch(node, batch)) Enqueue(node);
    }
    tls_in_deferred = true;
    work();
    tls_in_deferred = false;
  }
  deferred.clear();
  tls_held = nullptr;  // this worker goes back to the ready queue next
  std::lock_guard<std::mutex> lock(ready_mu_);
  --running_;
  if (ready_.empty() && running_ == 0) idle_cv_.notify_all();
}

void LiveRuntime::WorkerLoop() {
  std::deque<Task> batch;
  std::vector<DeferredWork> deferred;
  tls_deferred = &deferred;
  for (;;) {
    LiveNodeRuntime* node;
    {
      std::unique_lock<std::mutex> lock(ready_mu_);
      ready_cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
      if (stopping_) {
        tls_deferred = nullptr;
        return;
      }
      node = ready_.front();
      ready_.pop_front();
      ++running_;
    }
    const bool requeue = RunBatch(node, batch);
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      if (requeue) ready_.push_back(node);
      if (deferred.empty()) {
        --running_;
        if (ready_.empty() && running_ == 0) idle_cv_.notify_all();
      }
    }
    // With nothing deferred this worker goes back to the ready queue next,
    // so a requeued node needs no wake-up.
    if (deferred.empty()) continue;
    if (requeue) ready_cv_.notify_one();
    // The node is released; its blocking work runs here, off its mailbox.
    RunDeferred(deferred, batch);
  }
}

void LiveRuntime::TickLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(ready_mu_);
      if (stopping_) return;
    }
    wheel_.Advance(NowUs());
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.timer_tick_us));
  }
}

}  // namespace tpc::runtime
