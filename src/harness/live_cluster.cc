#include "harness/live_cluster.h"

#include <filesystem>
#include <future>
#include <utility>

#include "util/format.h"
#include "util/logging.h"

namespace tpc::harness {

LiveNode::LiveNode(runtime::LiveNodeRuntime* nrt,
                   runtime::LiveTransport* transport, std::string name,
                   const LiveNodeOptions& options,
                   const LiveClusterOptions& cluster_options)
    : name_(std::move(name)), nrt_(nrt) {
  // Bind before the TM constructor registers the endpoint: the transport
  // needs to know which mailbox delivers to this name.
  transport->Bind(name_, nrt_);

  runtime::LiveNodeRuntime* mailbox = nrt_;
  storage_ = std::make_unique<wal::FileStorage>(
      cluster_options.dir + "/" + name_ + ".log",
      [mailbox](wal::StorageBackend::WriteCallback&& done) {
        mailbox->Post(
            runtime::Task([cb = std::move(done)]() mutable { cb(); }));
      });
  log_ = std::make_unique<wal::LogManager>(nrt_, &ctx_, name_,
                                           storage_.get());
  log_->set_group_commit(options.group_commit);

  for (size_t i = 0; i < options.num_rms; ++i) {
    rms_.push_back(std::make_unique<rm::KVResourceManager>(
        nrt_, &ctx_, StringPrintf("%s.rm%zu", name_.c_str(), i), log_.get(),
        options.rm_options));
  }
  tm_ = std::make_unique<tm::TransactionManager>(nrt_, &ctx_, transport,
                                                 log_.get(), name_,
                                                 options.tm);
  for (auto& rm : rms_) tm_->AttachRm(rm.get());
}

LiveCluster::LiveCluster(LiveClusterOptions options)
    : options_(std::move(options)),
      runtime_(runtime::LiveOptions{options_.worker_threads,
                                    options_.timer_tick_us}) {
  TPC_CHECK(!options_.dir.empty());
  std::filesystem::create_directories(options_.dir);
}

LiveCluster::~LiveCluster() {
  Stop();  // joins workers before any node is destroyed
}

LiveNode& LiveCluster::AddNode(const std::string& name,
                               const LiveNodeOptions& options) {
  TPC_CHECK(!started_);
  TPC_CHECK(nodes_.find(name) == nodes_.end());
  runtime::LiveNodeRuntime* nrt = runtime_.AddNode(name);
  auto n =
      std::make_unique<LiveNode>(nrt, &transport_, name, options, options_);
  LiveNode* raw = n.get();
  nodes_.emplace(name, std::move(n));
  return *raw;
}

void LiveCluster::Connect(const std::string& a, const std::string& b,
                          tm::SessionOptions a_options,
                          tm::SessionOptions b_options) {
  TPC_CHECK(!started_);
  node(a).tm().Connect(b, a_options);
  node(b).tm().Connect(a, b_options);
}

void LiveCluster::Start() {
  TPC_CHECK(!started_);
  started_ = true;
  runtime_.Start();
}

void LiveCluster::Stop() {
  if (!started_) return;
  runtime_.WaitIdle();
  runtime_.Stop();
  started_ = false;
}

LiveNode& LiveCluster::node(const std::string& name) {
  auto it = nodes_.find(name);
  TPC_CHECK(it != nodes_.end());
  return *it->second;
}

void LiveCluster::RunOn(const std::string& name,
                        const std::function<void()>& fn) {
  std::promise<void> done;
  node(name).node_runtime()->Post(runtime::Task([&fn, &done] {
    fn();
    done.set_value();
  }));
  done.get_future().wait();
}

void LiveCluster::Post(const std::string& name, std::function<void()> fn) {
  node(name).node_runtime()->Post(runtime::Task(std::move(fn)));
}

}  // namespace tpc::harness
